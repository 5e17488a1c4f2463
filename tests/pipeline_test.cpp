// Placer, Redirector and the five-phase pipeline, exercised end to end on a
// byte-accurate PFS.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/units.hpp"
#include "core/pipeline.hpp"
#include "io/mpi_file.hpp"
#include "layouts/scheme.hpp"
#include "test_paths.hpp"
#include "trace/analysis.hpp"

namespace mha::core {
namespace {

using common::OpType;
using namespace mha::common::literals;

sim::ClusterConfig small_cluster() {
  sim::ClusterConfig c;
  c.num_hservers = 2;
  c.num_sservers = 2;
  return c;
}

trace::TraceRecord rec(int rank, OpType op, common::Offset offset, common::ByteCount size,
                       common::Seconds t = 0.0) {
  trace::TraceRecord r;
  r.rank = rank;
  r.op = op;
  r.offset = offset;
  r.size = size;
  r.t_start = t;
  return r;
}

/// A LANL-style mini trace over a populated file: alternating small/large.
trace::Trace mini_trace(const std::string& name = "orig") {
  trace::Trace t;
  t.file_name = name;
  common::Offset offset = 0;
  double time = 0.0;
  for (int loop = 0; loop < 8; ++loop) {
    for (int rank = 0; rank < 4; ++rank) {
      t.records.push_back(rec(rank, OpType::kRead, offset + rank * 200_KiB, 16, time));
    }
    time += 0.01;
    for (int rank = 0; rank < 4; ++rank) {
      t.records.push_back(
          rec(rank, OpType::kRead, offset + rank * 200_KiB + 16, 128_KiB, time));
    }
    time += 0.01;
    offset += 16 + 128_KiB;
  }
  return t;
}

// ---------------------------------------------------------------- placer ---

TEST(Placer, MigratesBytesIntoRegions) {
  pfs::HybridPfs pfs(small_cluster());
  auto original = *pfs.create_file("orig");
  ASSERT_TRUE(layouts::populate_file(pfs, original, 512_KiB).is_ok());

  ReorganizePlan plan;
  plan.drt = Drt("orig");
  Region region;
  region.name = "orig.mha.r0";
  region.length = 128_KiB;
  plan.regions.push_back(region);
  // Two displaced pieces: [0,64K) -> region[64K,128K), [256K,320K) -> region[0,64K).
  ASSERT_TRUE(plan.drt.insert(DrtEntry{0, 64_KiB, "orig.mha.r0", 64_KiB}).is_ok());
  ASSERT_TRUE(plan.drt.insert(DrtEntry{256_KiB, 64_KiB, "orig.mha.r0", 0}).is_ok());

  auto report = Placer::apply(pfs, plan, {StripePair{16_KiB, 48_KiB}});
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->bytes_migrated, 128_KiB);
  EXPECT_EQ(report->regions_created, 1u);
  EXPECT_GT(report->migration_time, 0.0);

  // Region bytes equal the original bytes at the mapped locations.
  auto region_id = *pfs.open("orig.mha.r0");
  auto a = *pfs.read_bytes(region_id, 64_KiB, 64_KiB, 0.0);
  auto b = *pfs.read_bytes(original, 0, 64_KiB, 0.0);
  EXPECT_EQ(a, b);
  auto c = *pfs.read_bytes(region_id, 0, 64_KiB, 0.0);
  auto d = *pfs.read_bytes(original, 256_KiB, 64_KiB, 0.0);
  EXPECT_EQ(c, d);

  // The region file carries the optimized stripe pair (the RST row).
  const auto& layout = pfs.mds().info(region_id).layout;
  EXPECT_EQ(layout.width(0), 16_KiB);
  EXPECT_EQ(layout.width(3), 48_KiB);
}

TEST(Placer, RequiresPairPerRegion) {
  pfs::HybridPfs pfs(small_cluster());
  (void)pfs.create_file("orig");
  ReorganizePlan plan;
  plan.drt = Drt("orig");
  plan.regions.push_back(Region{"r0", 0, 0, {}, 0});
  EXPECT_FALSE(Placer::apply(pfs, plan, {}).is_ok());
}

TEST(Placer, FailsWhenOriginalMissing) {
  pfs::HybridPfs pfs(small_cluster());
  ReorganizePlan plan;
  plan.drt = Drt("missing");
  EXPECT_FALSE(Placer::apply(pfs, plan, {}).is_ok());
}

// ------------------------------------------------------------ redirector ---

TEST(Redirector, TranslatesThroughDrt) {
  pfs::HybridPfs pfs(small_cluster());
  auto original = *pfs.create_file("orig");
  auto region = *pfs.create_file("region0");
  Drt drt("orig");
  ASSERT_TRUE(drt.insert(DrtEntry{100, 50, "region0", 0}).is_ok());

  auto redirector = Redirector::create(pfs, std::move(drt), 1e-6);
  ASSERT_TRUE(redirector.is_ok());
  const auto segs = redirector->translate(80, 100);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].file, original);
  EXPECT_EQ(segs[0].offset, 80u);
  EXPECT_EQ(segs[1].file, region);
  EXPECT_EQ(segs[1].offset, 0u);
  EXPECT_EQ(segs[1].length, 50u);
  EXPECT_EQ(segs[2].file, original);
  EXPECT_EQ(segs[2].offset, 150u);
  EXPECT_EQ(redirector->translations(), 1u);
  EXPECT_DOUBLE_EQ(redirector->lookup_overhead(), 1e-6);
}

TEST(Redirector, CreateFailsOnUnknownRegion) {
  pfs::HybridPfs pfs(small_cluster());
  (void)pfs.create_file("orig");
  Drt drt("orig");
  ASSERT_TRUE(drt.insert(DrtEntry{0, 10, "nonexistent-region", 0}).is_ok());
  EXPECT_FALSE(Redirector::create(pfs, std::move(drt)).is_ok());
}

TEST(Redirector, IdentityTableCoversFile) {
  const Drt drt = Redirector::identity_table("f", 1000, 300);
  EXPECT_EQ(drt.size(), 4u);  // 300+300+300+100
  EXPECT_EQ(drt.covered_bytes(), 1000u);
  const auto segs = drt.lookup(0, 1000);
  for (const auto& seg : segs) {
    EXPECT_TRUE(seg.redirected);
    EXPECT_EQ(drt.region_name(seg.region), "f");
    EXPECT_EQ(seg.target_offset, seg.logical_offset);  // identity mapping
  }
}

// -------------------------------------------------------------- pipeline ---

TEST(Pipeline, AnalyzeRejectsBadTraces) {
  EXPECT_FALSE(MhaPipeline::analyze(small_cluster(), trace::Trace{}).is_ok());
  trace::Trace unnamed;
  unnamed.records.push_back(rec(0, OpType::kRead, 0, 16));
  EXPECT_FALSE(MhaPipeline::analyze(small_cluster(), unnamed).is_ok());
}

TEST(Pipeline, AnalyzeGroupsAndOptimizes) {
  auto plan = MhaPipeline::analyze(small_cluster(), mini_trace());
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  // The mini trace has two clear size classes.
  EXPECT_EQ(plan->plan.regions.size(), 2u);
  EXPECT_EQ(plan->stripe_pairs.size(), 2u);
  EXPECT_EQ(plan->region_costs.size(), 2u);
  for (const auto& pair : plan->stripe_pairs) {
    EXPECT_GT(pair.s, pair.h);
  }
  // Small-request region gets smaller stripes than the large-request one.
  std::size_t small_region = plan->plan.regions[0].length < plan->plan.regions[1].length ? 0 : 1;
  EXPECT_LE(plan->stripe_pairs[small_region].s, plan->stripe_pairs[1 - small_region].s);
  EXPECT_FALSE(plan->to_string().empty());
}

TEST(Pipeline, DeployEndToEndPreservesData) {
  pfs::HybridPfs pfs(small_cluster());
  const auto trace = mini_trace();
  auto original = *pfs.create_file("orig");
  ASSERT_TRUE(layouts::populate_file(pfs, original, trace::extent_end(trace.records)).is_ok());

  auto deployment = MhaPipeline::deploy(pfs, trace);
  ASSERT_TRUE(deployment.is_ok()) << deployment.status().to_string();
  ASSERT_NE(deployment->redirector, nullptr);
  EXPECT_GT(deployment->placement.bytes_migrated, 0u);

  // Reading any traced range through the redirector returns the original
  // populated bytes.
  io::MpiSim mpi(4);
  auto file = *io::MpiFile::open(pfs, mpi, "orig");
  file.set_interceptor(deployment->redirector.get());
  for (const auto& record : trace.records) {
    auto got = file.read_vec(record.rank, record.offset, record.size);
    ASSERT_TRUE(got.is_ok());
    for (common::ByteCount i = 0; i < record.size; ++i) {
      ASSERT_EQ((*got)[i], layouts::populate_byte(record.offset + i))
          << "offset " << record.offset + i;
    }
  }
}

TEST(Pipeline, DeployWritesThroughRedirectionConsistently) {
  pfs::HybridPfs pfs(small_cluster());
  const auto trace = mini_trace();
  auto original = *pfs.create_file("orig");
  ASSERT_TRUE(layouts::populate_file(pfs, original, trace::extent_end(trace.records)).is_ok());
  auto deployment = MhaPipeline::deploy(pfs, trace);
  ASSERT_TRUE(deployment.is_ok());

  io::MpiSim mpi(1);
  auto file = *io::MpiFile::open(pfs, mpi, "orig");
  file.set_interceptor(deployment->redirector.get());
  // Overwrite a range that straddles region boundaries, then read it back.
  std::vector<std::uint8_t> data(150_KiB);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 3 + 1);
  ASSERT_TRUE(file.write_at(0, 100, data).is_ok());
  auto back = file.read_vec(0, 100, data.size());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, data);
}

TEST(Pipeline, DeployPersistsDrtWhenAsked) {
  const std::string drt_path = test::temp_path("pipeline_drt");
  std::remove(drt_path.c_str());
  pfs::HybridPfs pfs(small_cluster());
  const auto trace = mini_trace();
  auto original = *pfs.create_file("orig");
  ASSERT_TRUE(layouts::populate_file(pfs, original, trace::extent_end(trace.records)).is_ok());

  MhaOptions options;
  options.drt_path = drt_path;
  auto deployment = MhaPipeline::deploy(pfs, trace, options);
  ASSERT_TRUE(deployment.is_ok());

  // A "restarted" middleware reloads the DRT and serves identical bytes.
  kv::KvStore store;
  ASSERT_TRUE(store.open(drt_path).is_ok());
  auto reloaded = Drt::load(store, "orig");
  ASSERT_TRUE(reloaded.is_ok());
  EXPECT_EQ(reloaded->entries(), deployment->plan.plan.drt.entries());

  auto redirector = Redirector::create(pfs, std::move(reloaded).take());
  ASSERT_TRUE(redirector.is_ok());
  io::MpiSim mpi(1);
  auto file = *io::MpiFile::open(pfs, mpi, "orig");
  auto fresh = Redirector(std::move(redirector).take());
  file.set_interceptor(&fresh);
  auto got = file.read_vec(0, 16, 128_KiB);
  ASSERT_TRUE(got.is_ok());
  for (common::ByteCount i = 0; i < got->size(); ++i) {
    ASSERT_EQ((*got)[i], layouts::populate_byte(16 + i));
  }
  std::remove(drt_path.c_str());
}

TEST(Pipeline, UniformTraceDegradesToSingleRegion) {
  trace::Trace trace;
  trace.file_name = "uniform";
  for (int i = 0; i < 32; ++i) {
    trace.records.push_back(
        rec(i % 4, OpType::kWrite, static_cast<common::Offset>(i) * 64_KiB, 64_KiB,
            0.01 * (i / 4)));
  }
  auto plan = MhaPipeline::analyze(small_cluster(), trace);
  ASSERT_TRUE(plan.is_ok());
  // Uniform pattern -> one group -> one region: MHA degrades to HARL.
  EXPECT_EQ(plan->plan.regions.size(), 1u);
}

}  // namespace
}  // namespace mha::core
