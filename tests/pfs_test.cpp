#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>

#include "common/units.hpp"
#include "pfs/file_system.hpp"
#include "test_paths.hpp"

namespace mha::pfs {
namespace {

using common::OpType;
using namespace mha::common::literals;

sim::ClusterConfig small_cluster() {
  sim::ClusterConfig c;
  c.num_hservers = 2;
  c.num_sservers = 2;
  return c;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed + i * 7);
  return v;
}

// ------------------------------------------------------------------ mds ---

TEST(MetadataServer, CreateLookupRemove) {
  MetadataServer mds;
  auto id = mds.create_file("a", StripeLayout::uniform(4, 64_KiB));
  ASSERT_TRUE(id.is_ok());
  EXPECT_TRUE(mds.exists("a"));
  EXPECT_EQ(*mds.lookup("a"), *id);
  EXPECT_FALSE(mds.lookup("b").is_ok());
  EXPECT_FALSE(mds.create_file("a", StripeLayout::uniform(4, 64_KiB)).is_ok());
  EXPECT_TRUE(mds.remove("a").is_ok());
  EXPECT_FALSE(mds.exists("a"));
  EXPECT_FALSE(mds.remove("a").is_ok());
}

TEST(MetadataServer, TracksSizeMonotonically) {
  MetadataServer mds;
  auto id = *mds.create_file("f", StripeLayout::uniform(2, 1_KiB));
  mds.extend(id, 100);
  mds.extend(id, 50);
  EXPECT_EQ(mds.info(id).size, 100u);
}

TEST(MetadataServer, LayoutCodecRoundTrip) {
  const auto layout = StripeLayout::stripe_pair(3, 2, 0, 96_KiB).take();
  const std::string row = MetadataServer::encode_layout(layout);
  auto back = MetadataServer::decode_layout(row);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, layout);
  EXPECT_FALSE(MetadataServer::decode_layout("12,abc").is_ok());
  EXPECT_FALSE(MetadataServer::decode_layout("").is_ok());
}

TEST(MetadataServer, RstPersistenceSurvivesRestart) {
  const std::string rst = test::temp_path("mds_rst");
  std::remove(rst.c_str());
  {
    MetadataServer mds(rst);
    ASSERT_TRUE(mds.create_file("region0", StripeLayout::stripe_pair(2, 2, 8_KiB, 24_KiB).take())
                    .is_ok());
    ASSERT_TRUE(mds.create_file("region1", StripeLayout::uniform(4, 64_KiB)).is_ok());
  }
  MetadataServer revived(rst);
  ASSERT_TRUE(revived.restore_from_rst().is_ok());
  ASSERT_TRUE(revived.exists("region0"));
  ASSERT_TRUE(revived.exists("region1"));
  const auto& info = revived.info(*revived.lookup("region0"));
  EXPECT_EQ(info.layout.width(0), 8_KiB);
  EXPECT_EQ(info.layout.width(3), 24_KiB);
  std::remove(rst.c_str());
}

TEST(MetadataServer, ListFilesSorted) {
  MetadataServer mds;
  (void)mds.create_file("zeta", StripeLayout::uniform(1, 1_KiB));
  (void)mds.create_file("alpha", StripeLayout::uniform(1, 1_KiB));
  const auto names = mds.list_files();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

// ------------------------------------------------------------------ pfs ---

TEST(HybridPfs, ServerOrderingMatchesPaper) {
  HybridPfs pfs(small_cluster());
  EXPECT_EQ(pfs.num_servers(), 4u);
  EXPECT_TRUE(pfs.is_hserver(0));
  EXPECT_TRUE(pfs.is_hserver(1));
  EXPECT_FALSE(pfs.is_hserver(2));
  EXPECT_EQ(pfs.data_server(3).kind(), common::ServerKind::kSsd);
}

TEST(HybridPfs, RejectsMismatchedLayout) {
  HybridPfs pfs(small_cluster());
  EXPECT_FALSE(pfs.create_file("bad", StripeLayout::uniform(7, 64_KiB)).is_ok());
}

TEST(HybridPfs, WriteReadIntegritySmall) {
  HybridPfs pfs(small_cluster());
  auto file = *pfs.create_file("f");
  const auto data = pattern(100);
  ASSERT_TRUE(pfs.write(file, 5, data, 0.0).is_ok());
  auto back = pfs.read_bytes(file, 5, 100, 1.0);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, data);
}

TEST(HybridPfs, WriteReadIntegrityAcrossStripes) {
  HybridPfs pfs(small_cluster());
  auto file = *pfs.create_file("f", StripeLayout::stripe_pair(2, 2, 4_KiB, 12_KiB).take());
  // Spans many stripes and several cycles, unaligned on both ends.
  const auto data = pattern(200_KiB + 333, 9);
  ASSERT_TRUE(pfs.write(file, 1_KiB + 17, data, 0.0).is_ok());
  auto back = pfs.read_bytes(file, 1_KiB + 17, data.size(), 1.0);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, data);
  EXPECT_EQ(pfs.stored_bytes(file), data.size());
  EXPECT_EQ(pfs.file_size(file), 1_KiB + 17 + data.size());
}

TEST(HybridPfs, SsdOnlyLayoutLeavesHserversEmpty) {
  HybridPfs pfs(small_cluster());
  auto file = *pfs.create_file("f", StripeLayout::stripe_pair(2, 2, 0, 16_KiB).take());
  ASSERT_TRUE(pfs.write(file, 0, pattern(64_KiB), 0.0).is_ok());
  EXPECT_EQ(pfs.data_server(0).stored_bytes(file), 0u);
  EXPECT_EQ(pfs.data_server(1).stored_bytes(file), 0u);
  EXPECT_EQ(pfs.data_server(2).stored_bytes(file) + pfs.data_server(3).stored_bytes(file),
            64_KiB);
}

TEST(HybridPfs, ReadOfHoleReturnsZeros) {
  HybridPfs pfs(small_cluster());
  auto file = *pfs.create_file("f");
  auto back = pfs.read_bytes(file, 1_MiB, 64, 0.0);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, std::vector<std::uint8_t>(64, 0));
}

TEST(HybridPfs, TimingReflectsHeterogeneity) {
  HybridPfs pfs(small_cluster());
  auto file = *pfs.create_file("f");
  ASSERT_TRUE(pfs.write(file, 0, pattern(256_KiB), 0.0).is_ok());
  // HServers (0,1) must have spent more device time than SServers (2,3) on
  // the same byte count.
  EXPECT_EQ(pfs.server_stats(0).bytes_total(), pfs.server_stats(2).bytes_total());
  EXPECT_GT(pfs.server_stats(0).busy_time, pfs.server_stats(2).busy_time * 2);
}

TEST(HybridPfs, IoResultCountsServersAndSubRequests) {
  HybridPfs pfs(small_cluster());
  auto file = *pfs.create_file("f", StripeLayout::uniform(4, 1_KiB));
  auto r = pfs.write(file, 0, pattern(4_KiB), 0.0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->servers_touched, 4u);
  EXPECT_EQ(r->sub_requests, 4u);
}

TEST(HybridPfs, RemoveDropsDataEverywhere) {
  HybridPfs pfs(small_cluster());
  auto file = *pfs.create_file("f");
  ASSERT_TRUE(pfs.write(file, 0, pattern(64_KiB), 0.0).is_ok());
  ASSERT_TRUE(pfs.remove("f").is_ok());
  for (std::size_t i = 0; i < pfs.num_servers(); ++i) {
    EXPECT_EQ(pfs.data_server(i).stored_bytes(file), 0u);
  }
  EXPECT_FALSE(pfs.open("f").is_ok());
}

TEST(HybridPfs, BadFileIdRejected) {
  HybridPfs pfs(small_cluster());
  std::uint8_t byte = 0;
  EXPECT_FALSE(pfs.write(42, 0, &byte, 1, 0.0).is_ok());
  EXPECT_FALSE(pfs.read(42, 0, &byte, 1, 0.0).is_ok());
}

TEST(HybridPfs, TimingOnlyModeDiscardsPayload) {
  pfs::PfsOptions options;
  options.store_data = false;
  HybridPfs pfs(small_cluster(), options);
  auto file = *pfs.create_file("f");
  ASSERT_TRUE(pfs.write(file, 0, pattern(64_KiB), 0.0).is_ok());
  EXPECT_EQ(pfs.stored_bytes(file), 0u);
  // Timing is still charged.
  EXPECT_GT(pfs.server_stats(0).busy_time, 0.0);
  // Reads come back zero-filled.
  auto back = pfs.read_bytes(file, 0, 16, 1.0);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, std::vector<std::uint8_t>(16, 0));
}

TEST(HybridPfs, StatsResetIsolatesMeasurementWindows) {
  HybridPfs pfs(small_cluster());
  auto file = *pfs.create_file("f");
  ASSERT_TRUE(pfs.write(file, 0, pattern(64_KiB), 0.0).is_ok());
  pfs.reset_stats();
  pfs.reset_clocks();
  for (std::size_t i = 0; i < pfs.num_servers(); ++i) {
    EXPECT_EQ(pfs.server_stats(i).bytes_total(), 0u);
  }
  // A fresh request starts from a drained queue at t=0.
  auto r = pfs.read_bytes(file, 0, 1_KiB, 0.0);
  ASSERT_TRUE(r.is_ok());
}

TEST(HybridPfs, StatsTableMentionsEveryServer) {
  HybridPfs pfs(small_cluster());
  const std::string table = pfs.stats_table();
  EXPECT_NE(table.find("S0"), std::string::npos);
  EXPECT_NE(table.find("S3"), std::string::npos);
}

}  // namespace
}  // namespace mha::pfs
