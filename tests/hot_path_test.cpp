// Flat-DRT layout edge cases, lookup-hint behaviour across copies/moves, the
// SmallVec scratch container, and coalescing equivalence in the redirector —
// the correctness side of the zero-allocation request path.
#include <gtest/gtest.h>

#include <utility>

#include "common/small_vec.hpp"
#include "core/redirector.hpp"
#include "io/mpi_file.hpp"
#include "pfs/file_system.hpp"
#include "sim/cluster_sim.hpp"

namespace mha::core {
namespace {

DrtEntry entry(common::Offset o, common::ByteCount len, std::string r_file,
               common::Offset r) {
  return DrtEntry{o, len, std::move(r_file), r};
}

/// Every lookup must tile [offset, offset+size) exactly, in order.
void expect_tiles(const Drt& drt, common::Offset offset, common::ByteCount size) {
  Drt::SegmentVec segments;
  drt.lookup(offset, size, segments);
  common::Offset cursor = offset;
  for (const DrtSegment& seg : segments) {
    EXPECT_EQ(seg.logical_offset, cursor);
    EXPECT_GT(seg.length, 0u);
    if (!seg.redirected) {
      EXPECT_EQ(seg.region, kNoRegion);
      EXPECT_EQ(seg.target_offset, cursor);  // passthrough is identity
    } else {
      EXPECT_LT(seg.region, drt.region_count());
    }
    cursor += seg.length;
  }
  EXPECT_EQ(cursor, offset + size);
}

TEST(DrtFlat, EmptyTableIsSinglePassthrough) {
  Drt drt("orig");
  const auto segments = drt.lookup(0, 4096);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_FALSE(segments[0].redirected);
  EXPECT_EQ(segments[0].region, kNoRegion);
  EXPECT_EQ(segments[0].length, 4096u);
  expect_tiles(drt, 123, 7777);
}

TEST(DrtFlat, GapOnlyRequestBetweenEntries) {
  Drt drt("orig");
  ASSERT_TRUE(drt.insert(entry(0, 100, "r0", 0)).is_ok());
  ASSERT_TRUE(drt.insert(entry(1000, 100, "r1", 0)).is_ok());
  const auto segments = drt.lookup(200, 300);  // entirely inside the gap
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_FALSE(segments[0].redirected);
  EXPECT_EQ(segments[0].target_offset, 200u);
  EXPECT_EQ(segments[0].length, 300u);
}

TEST(DrtFlat, RequestSpanningManyEntriesAndGaps) {
  // 16 entries of 64 bytes with 64-byte gaps: a request over the whole range
  // splits into 32+ segments, exercising the SmallVec spill path too.
  Drt drt("orig");
  const std::string regions[] = {"r0", "r1", "r2"};
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        drt.insert(entry(static_cast<common::Offset>(i) * 128, 64, regions[i % 3],
                         static_cast<common::Offset>(i) * 64))
            .is_ok());
  }
  Drt::SegmentVec segments;
  drt.lookup(0, 16 * 128, segments);
  EXPECT_EQ(segments.size(), 32u);  // entry, gap, entry, gap, ...
  EXPECT_TRUE(segments.spilled());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(segments[i].redirected, i % 2 == 0);
  }
  expect_tiles(drt, 0, 16 * 128);
  expect_tiles(drt, 33, 16 * 128 - 57);  // unaligned span
  EXPECT_EQ(drt.region_count(), 3u);  // names interned, not duplicated
}

TEST(DrtFlat, ZeroLengthLookupAndInsert) {
  Drt drt("orig");
  ASSERT_TRUE(drt.insert(entry(0, 10, "r0", 0)).is_ok());
  EXPECT_FALSE(drt.insert(entry(50, 0, "r0", 0)).is_ok());
  Drt::SegmentVec out;
  out.push_back(DrtSegment{});  // lookup must clear stale scratch
  drt.lookup(5, 0, out);
  EXPECT_TRUE(out.empty());
}

TEST(DrtFlat, HintSurvivesCopyMoveAndInsert) {
  Drt drt("orig");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(drt.insert(entry(static_cast<common::Offset>(i) * 100, 100,
                                 "r0", static_cast<common::Offset>(i) * 100))
                    .is_ok());
  }
  // Warm the sequential hint deep into the table.
  Drt::SegmentVec scratch;
  for (common::Offset pos = 0; pos < 800; pos += 100) drt.lookup(pos, 100, scratch);

  // A copy carries the hint as an index — lookups anywhere stay correct.
  Drt copy = drt;
  expect_tiles(copy, 0, 800);
  copy.lookup(750, 10, scratch);
  ASSERT_EQ(scratch.size(), 1u);
  EXPECT_EQ(scratch[0].target_offset, 750u);

  // Rewinding to the start with a stale forward hint is just a cache miss.
  drt.lookup(0, 50, scratch);
  ASSERT_EQ(scratch.size(), 1u);
  EXPECT_EQ(scratch[0].target_offset, 0u);

  // Inserting ahead of the hinted entry shifts the vector; the hinted index
  // now names a different entry and must be re-validated, not trusted.
  Drt moved = std::move(copy);
  ASSERT_TRUE(moved.insert(entry(900, 50, "r1", 0)).is_ok());
  expect_tiles(moved, 0, 1000);
  moved.lookup(920, 10, scratch);
  ASSERT_EQ(scratch.size(), 1u);
  EXPECT_TRUE(scratch[0].redirected);
  EXPECT_EQ(moved.region_name(scratch[0].region), "r1");
  EXPECT_EQ(scratch[0].target_offset, 20u);
}

TEST(SmallVec, InlineThenSpillRoundTrip) {
  common::SmallVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_FALSE(v.spilled());
  for (int i = 4; i < 40; ++i) v.push_back(i);
  EXPECT_TRUE(v.spilled());
  ASSERT_EQ(v.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);

  // clear() keeps the spilled capacity: refilling must not re-spill.
  const std::size_t cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);

  common::SmallVec<int, 4> w;
  w.push_back(7);
  v = w;  // copy into previously-spilled vector
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 7);
  EXPECT_TRUE(v == w);

  common::SmallVec<int, 4> big;
  for (int i = 0; i < 16; ++i) big.push_back(i);
  common::SmallVec<int, 4> taken = std::move(big);
  ASSERT_EQ(taken.size(), 16u);
  EXPECT_EQ(taken[15], 15);
}

TEST(Redirector, CoalescesAdjacentSegmentsSameRegion) {
  sim::ClusterConfig config;
  config.num_hservers = 2;
  config.num_sservers = 2;
  pfs::HybridPfs pfs(config, pfs::PfsOptions{"", false});
  (void)pfs.create_file("orig");
  (void)pfs.create_file("region");

  // Three entries contiguous in both spaces, then one with a target gap.
  Drt drt("orig");
  ASSERT_TRUE(drt.insert(entry(0, 100, "region", 0)).is_ok());
  ASSERT_TRUE(drt.insert(entry(100, 100, "region", 100)).is_ok());
  ASSERT_TRUE(drt.insert(entry(200, 100, "region", 200)).is_ok());
  ASSERT_TRUE(drt.insert(entry(300, 100, "region", 1000)).is_ok());
  auto redirector = Redirector::create(pfs, std::move(drt));
  ASSERT_TRUE(redirector.is_ok());

  io::SegmentList out;
  redirector->translate(0, 400, out);
  ASSERT_EQ(out.size(), 2u);  // first three merged, the target-gap one not
  EXPECT_EQ(out[0].offset, 0u);
  EXPECT_EQ(out[0].length, 300u);
  EXPECT_EQ(out[1].offset, 1000u);
  EXPECT_EQ(out[1].length, 100u);

  // Equivalence with the uncoalesced DRT split: same logical tiling and the
  // same (file, target) byte mapping, piece by piece.
  const auto raw = redirector->drt().lookup(0, 400);
  common::Offset cursor = 0;
  for (const DrtSegment& seg : raw) {
    bool found = false;
    for (const io::RedirectSegment& merged : out) {
      if (seg.logical_offset >= merged.logical_offset &&
          seg.logical_offset + seg.length <= merged.logical_offset + merged.length) {
        // The merged segment must map this piece to the same target bytes.
        EXPECT_EQ(merged.offset + (seg.logical_offset - merged.logical_offset),
                  seg.target_offset);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "raw segment at " << seg.logical_offset << " not covered";
    EXPECT_EQ(seg.logical_offset, cursor);
    cursor += seg.length;
  }
  EXPECT_EQ(cursor, 400u);
}

TEST(Redirector, DoesNotCoalesceAcrossFilesOrLogicalGaps) {
  sim::ClusterConfig config;
  config.num_hservers = 2;
  config.num_sservers = 2;
  pfs::HybridPfs pfs(config, pfs::PfsOptions{"", false});
  (void)pfs.create_file("orig");
  (void)pfs.create_file("ra");
  (void)pfs.create_file("rb");

  Drt drt("orig");
  ASSERT_TRUE(drt.insert(entry(0, 100, "ra", 0)).is_ok());
  ASSERT_TRUE(drt.insert(entry(100, 100, "rb", 100)).is_ok());  // other file
  ASSERT_TRUE(drt.insert(entry(300, 100, "rb", 200)).is_ok());  // logical gap
  auto redirector = Redirector::create(pfs, std::move(drt));
  ASSERT_TRUE(redirector.is_ok());

  io::SegmentList out;
  redirector->translate(0, 400, out);
  ASSERT_EQ(out.size(), 4u);  // ra, rb, passthrough gap, rb
  const auto ra = pfs.open("ra");
  const auto rb = pfs.open("rb");
  const auto orig = pfs.open("orig");
  ASSERT_TRUE(ra.is_ok() && rb.is_ok() && orig.is_ok());
  EXPECT_EQ(out[0].file, *ra);
  EXPECT_EQ(out[1].file, *rb);
  EXPECT_EQ(out[2].file, *orig);  // the [200, 300) gap passes through
  EXPECT_EQ(out[3].file, *rb);
  EXPECT_EQ(out[3].offset, 200u);
}

}  // namespace
}  // namespace mha::core
