#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "pfs/layout.hpp"

namespace mha::pfs {
namespace {

using common::ByteCount;
using common::Offset;
using namespace mha::common::literals;

// ----------------------------------------------------------- unit tests ---

TEST(StripeLayout, RejectsDegenerateConfigs) {
  EXPECT_FALSE(StripeLayout::create({}).is_ok());
  EXPECT_FALSE(StripeLayout::create({0, 0, 0}).is_ok());
  EXPECT_TRUE(StripeLayout::create({0, 4096}).is_ok());
  EXPECT_FALSE(StripeLayout::stripe_pair(2, 2, 0, 0).is_ok());
  EXPECT_TRUE(StripeLayout::stripe_pair(2, 2, 0, 4096).is_ok());
}

TEST(StripeLayout, UniformMapsRoundRobin) {
  const StripeLayout layout = StripeLayout::uniform(4, 100);
  EXPECT_EQ(layout.cycle_width(), 400u);
  // First cycle.
  EXPECT_EQ(layout.map_offset(0).server, 0u);
  EXPECT_EQ(layout.map_offset(99).server, 0u);
  EXPECT_EQ(layout.map_offset(100).server, 1u);
  EXPECT_EQ(layout.map_offset(399).server, 3u);
  // Second cycle wraps with dense per-server physical offsets.
  const SubExtent at = layout.map_offset(450);
  EXPECT_EQ(at.server, 0u);
  EXPECT_EQ(at.physical_offset, 150u);
}

TEST(StripeLayout, StripePairLayout) {
  auto layout = StripeLayout::stripe_pair(2, 2, 32_KiB, 96_KiB);
  ASSERT_TRUE(layout.is_ok());
  EXPECT_EQ(layout->cycle_width(), 2 * 32_KiB + 2 * 96_KiB);
  EXPECT_EQ(layout->width(0), 32_KiB);
  EXPECT_EQ(layout->width(1), 32_KiB);
  EXPECT_EQ(layout->width(2), 96_KiB);
  EXPECT_EQ(layout->width(3), 96_KiB);
}

TEST(StripeLayout, ZeroWidthServersAreSkipped) {
  auto layout = StripeLayout::stripe_pair(2, 2, 0, 64_KiB);
  ASSERT_TRUE(layout.is_ok());
  // All bytes land on SServers (indices 2 and 3).
  const auto subs = layout->map_extent(0, 256_KiB);
  for (const SubExtent& sub : subs) EXPECT_GE(sub.server, 2u);
  // Inverse mapping on a zero-width server is an error.
  EXPECT_FALSE(layout->logical_offset(0, 0).is_ok());
}

TEST(StripeLayout, MapExtentSplitsAtStripeBoundaries) {
  const StripeLayout layout = StripeLayout::uniform(2, 100);
  const auto subs = layout.map_extent(50, 100);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].server, 0u);
  EXPECT_EQ(subs[0].physical_offset, 50u);
  EXPECT_EQ(subs[0].length, 50u);
  EXPECT_EQ(subs[0].logical_offset, 50u);
  EXPECT_EQ(subs[1].server, 1u);
  EXPECT_EQ(subs[1].physical_offset, 0u);
  EXPECT_EQ(subs[1].length, 50u);
  EXPECT_EQ(subs[1].logical_offset, 100u);
}

TEST(StripeLayout, MapExtentCoalescesAcrossCycles) {
  // One server: every cycle lands back-to-back physically.
  const StripeLayout layout = StripeLayout::uniform(1, 100);
  const auto subs = layout.map_extent(0, 1000);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].length, 1000u);
}

TEST(StripeLayout, EmptyExtent) {
  const StripeLayout layout = StripeLayout::uniform(3, 100);
  EXPECT_TRUE(layout.map_extent(123, 0).empty());
}

TEST(StripeLayout, ServersTouchedGrowsWithSize) {
  const StripeLayout layout = StripeLayout::uniform(4, 64_KiB);
  EXPECT_EQ(layout.servers_touched(0, 1), 1u);
  EXPECT_EQ(layout.servers_touched(0, 64_KiB), 1u);
  EXPECT_EQ(layout.servers_touched(0, 64_KiB + 1), 2u);
  EXPECT_EQ(layout.servers_touched(0, 4 * 64_KiB), 4u);
  EXPECT_EQ(layout.servers_touched(0, 8 * 64_KiB), 4u);  // capped at servers
}

TEST(StripeLayout, InverseMappingRoundTrip) {
  auto layout = StripeLayout::stripe_pair(3, 2, 12_KiB, 40_KiB).take();
  for (Offset offset : {Offset{0}, Offset{12_KiB - 1}, Offset{12_KiB}, Offset{100000},
                        Offset{3 * 12_KiB + 2 * 40_KiB}, Offset{987654}}) {
    const SubExtent at = layout.map_offset(offset);
    auto back = layout.logical_offset(at.server, at.physical_offset);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(*back, offset);
  }
}

TEST(StripeLayout, ToStringNamesWidths) {
  auto layout = StripeLayout::stripe_pair(1, 1, 32_KiB, 96_KiB).take();
  EXPECT_EQ(layout.to_string(), "[32KiB,96KiB]");
}

// ------------------------------------------------- property-style sweep ---

struct LayoutCase {
  std::vector<ByteCount> widths;
  const char* label;
};

// Print by label: gtest's default dumps the object's bytes, heap pointers
// included, so the listed test names would change from run to run.
void PrintTo(const LayoutCase& c, std::ostream* os) { *os << c.label; }

class LayoutPropertyTest : public ::testing::TestWithParam<LayoutCase> {};

// The mapping must partition any extent: pieces cover it exactly, in order,
// without overlap, and the per-server physical images must be disjoint.
TEST_P(LayoutPropertyTest, MapExtentIsAPartition) {
  auto layout = StripeLayout::create(GetParam().widths).take();
  common::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 200; ++trial) {
    const Offset offset = rng.next_below(1 << 22);
    const ByteCount length = 1 + rng.next_below(1 << 20);
    const auto subs = layout.map_extent(offset, length);

    // Coverage: logical pieces are contiguous, ascending, and sum to length.
    Offset cursor = offset;
    ByteCount total = 0;
    for (const SubExtent& sub : subs) {
      EXPECT_EQ(sub.logical_offset, cursor);
      EXPECT_GT(sub.length, 0u);
      EXPECT_EQ(layout.width(sub.server) == 0, false) << "byte on zero-width server";
      cursor += sub.length;
      total += sub.length;
    }
    EXPECT_EQ(total, length);
    EXPECT_EQ(cursor, offset + length);
  }
}

// Every byte's (server, physical) image must invert back to it.
TEST_P(LayoutPropertyTest, OffsetMappingIsBijective) {
  auto layout = StripeLayout::create(GetParam().widths).take();
  common::Rng rng(0xBEEF);
  for (int trial = 0; trial < 500; ++trial) {
    const Offset offset = rng.next_below(1 << 24);
    const SubExtent at = layout.map_offset(offset);
    auto back = layout.logical_offset(at.server, at.physical_offset);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(*back, offset);
  }
}

// Per-server physical placement must be dense: mapping the whole prefix
// [0, N*cycle) gives each server exactly N*width bytes.
TEST_P(LayoutPropertyTest, PhysicalPlacementIsDense) {
  auto layout = StripeLayout::create(GetParam().widths).take();
  const ByteCount cycles = 7;
  const auto subs = layout.map_extent(0, cycles * layout.cycle_width());
  std::vector<ByteCount> per_server(layout.num_servers(), 0);
  for (const SubExtent& sub : subs) per_server[sub.server] += sub.length;
  for (std::size_t i = 0; i < layout.num_servers(); ++i) {
    EXPECT_EQ(per_server[i], cycles * layout.width(i)) << "server " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, LayoutPropertyTest,
    ::testing::Values(LayoutCase{{64_KiB, 64_KiB, 64_KiB, 64_KiB}, "uniform"},
                      LayoutCase{{4_KiB}, "single"},
                      LayoutCase{{32_KiB, 32_KiB, 96_KiB, 96_KiB}, "pair"},
                      LayoutCase{{0, 0, 64_KiB, 64_KiB}, "ssd_only"},
                      LayoutCase{{4_KiB, 8_KiB, 12_KiB, 100_KiB, 0, 1}, "ragged"},
                      LayoutCase{{1, 1, 1}, "tiny"},
                      LayoutCase{{12_KiB, 12_KiB, 12_KiB, 12_KiB, 12_KiB, 12_KiB,
                                  28_KiB, 28_KiB},
                                 "paper_6h2s"}),
    [](const auto& info) { return info.param.label; });

}  // namespace
}  // namespace mha::pfs
