// End-to-end integration: the paper's full workflow, durability across
// simulated restarts, and failure injection at module boundaries.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/units.hpp"
#include "core/pipeline.hpp"
#include "kv/kvstore.hpp"
#include "layouts/scheme.hpp"
#include "test_paths.hpp"
#include "trace/trace_io.hpp"
#include "workloads/apps.hpp"
#include "workloads/ior.hpp"
#include "workloads/replayer.hpp"

namespace mha {
namespace {

using common::OpType;
using namespace mha::common::literals;

sim::ClusterConfig paper_cluster() {
  sim::ClusterConfig c;
  c.num_hservers = 6;
  c.num_sservers = 2;
  return c;
}

// ----------------------------------------------------- paper's workflow ---

// The complete §III-B lifecycle: profile run -> trace file on disk ->
// off-line optimization from the file -> placement -> redirected rerun.
// Asserts byte-integrity and the headline speedup at every step.
TEST(EndToEnd, FiveChapterWorkflowWithTraceFiles) {
  const std::string trace_path = test::temp_path("e2e_trace", ".csv");
  const std::string drt_path = test::temp_path("e2e_drt");
  std::remove(trace_path.c_str());
  std::remove(drt_path.c_str());

  workloads::LanlConfig app;
  app.num_procs = 4;
  app.loops = 64;
  const trace::Trace workload = workloads::lanl_app2(app);

  pfs::HybridPfs pfs(paper_cluster());
  auto def = layouts::make_def();
  auto deployment = def->prepare(pfs, workload);
  ASSERT_TRUE(deployment.is_ok());

  // Phase 1: profile run with the collector; persist the trace like IOSIG.
  workloads::ReplayOptions profiling;
  profiling.trace_run = true;
  auto first = workloads::replay(pfs, *deployment, workload, profiling);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(trace::write_csv_file(first->captured, trace_path).is_ok());

  // Off-line: reload the trace from disk and deploy (phases 2-4 + DRT
  // persistence).
  auto reloaded = trace::read_csv_file(trace_path);
  ASSERT_TRUE(reloaded.is_ok());
  core::MhaOptions options;
  options.drt_path = drt_path;
  auto mha = core::MhaPipeline::deploy(pfs, *reloaded, options);
  ASSERT_TRUE(mha.is_ok()) << mha.status().to_string();

  // Phase 5: redirected rerun is faster and byte-identical.
  pfs.reset_stats();
  pfs.reset_clocks();
  layouts::Deployment redirected;
  redirected.file_name = workload.file_name;
  redirected.interceptor = std::move(mha->redirector);
  workloads::ReplayOptions verify;
  verify.verify_data = true;
  auto second = workloads::replay(pfs, redirected, workload, verify);
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_GT(second->aggregate_bandwidth, first->aggregate_bandwidth);

  std::remove(trace_path.c_str());
  std::remove(drt_path.c_str());
}

// The MDS's RST plus the persisted DRT fully reconstruct a deployment after
// a "power failure" — a fresh PFS process serves identical bytes.
TEST(EndToEnd, DeploymentSurvivesRestart) {
  const std::string rst_path = test::temp_path("restart_rst");
  const std::string drt_path = test::temp_path("restart_drt");
  std::remove(rst_path.c_str());
  std::remove(drt_path.c_str());

  workloads::IorMixedSizesConfig ior;
  ior.num_procs = 4;
  ior.request_sizes = {16_KiB, 64_KiB};
  ior.file_size = 8_MiB;
  ior.op = OpType::kRead;
  ior.file_name = "restart.dat";
  const trace::Trace workload = workloads::ior_mixed_sizes(ior);

  // First life: build everything with persistence on.
  {
    pfs::HybridPfs pfs(paper_cluster(), rst_path);
    auto original = pfs.create_file(workload.file_name);
    ASSERT_TRUE(original.is_ok());
    ASSERT_TRUE(
        layouts::populate_file(pfs, *original, trace::extent_end(workload.records)).is_ok());
    core::MhaOptions options;
    options.drt_path = drt_path;
    auto mha = core::MhaPipeline::deploy(pfs, workload, options);
    ASSERT_TRUE(mha.is_ok());
  }

  // Second life: namespace from the RST, table from the DRT store.  The
  // in-memory extent data does not survive (it is a simulator), but every
  // piece of *metadata* must: names, layouts, and the reordering map.
  pfs::HybridPfs revived(paper_cluster(), rst_path);
  ASSERT_TRUE(revived.mds().restore_from_rst().is_ok());
  ASSERT_TRUE(revived.open(workload.file_name).is_ok());

  kv::KvStore store;
  ASSERT_TRUE(store.open(drt_path).is_ok());
  auto drt = core::Drt::load(store, workload.file_name);
  ASSERT_TRUE(drt.is_ok());
  EXPECT_GT(drt->size(), 0u);

  auto redirector = core::Redirector::create(revived, std::move(drt).take());
  ASSERT_TRUE(redirector.is_ok()) << redirector.status().to_string();

  // Region files kept their optimized (non-default) layouts.
  bool saw_pair = false;
  for (const std::string& name : revived.mds().list_files()) {
    const auto& info = revived.mds().info(*revived.mds().lookup(name));
    if (name.find(".mha.r") == std::string::npos) continue;
    if (info.layout.width(0) != info.layout.width(revived.num_servers() - 1)) saw_pair = true;
  }
  EXPECT_TRUE(saw_pair);
  std::remove(rst_path.c_str());
  std::remove(drt_path.c_str());
}

// ----------------------------------------------------- failure injection ---

TEST(FailureInjection, DeployWithoutOriginalFileFails) {
  pfs::HybridPfs pfs(paper_cluster());
  workloads::LanlConfig app;
  app.num_procs = 2;
  app.loops = 4;
  const auto workload = workloads::lanl_app2(app);
  auto result = core::MhaPipeline::deploy(pfs, workload);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), common::ErrorCode::kNotFound);
}

TEST(FailureInjection, DeployTwiceRejectsExistingRegions) {
  pfs::HybridPfs pfs(paper_cluster());
  workloads::LanlConfig app;
  app.num_procs = 2;
  app.loops = 4;
  const auto workload = workloads::lanl_app2(app);
  auto original = pfs.create_file(workload.file_name);
  ASSERT_TRUE(original.is_ok());
  ASSERT_TRUE(core::MhaPipeline::deploy(pfs, workload).is_ok());
  auto again = core::MhaPipeline::deploy(pfs, workload);
  EXPECT_FALSE(again.is_ok());
  EXPECT_EQ(again.status().code(), common::ErrorCode::kAlreadyExists);
}

TEST(FailureInjection, CorruptDrtStoreIsRejectedNotMisread) {
  const std::string drt_path = test::temp_path("corrupt_drt");
  std::remove(drt_path.c_str());
  {
    kv::KvStore store;
    ASSERT_TRUE(store.open(drt_path).is_ok());
    ASSERT_TRUE(store.put("f#0000000000000000", "garbage-not-a-row").is_ok());
  }
  kv::KvStore store;
  ASSERT_TRUE(store.open(drt_path).is_ok());
  auto drt = core::Drt::load(store, "f");
  EXPECT_FALSE(drt.is_ok());
  EXPECT_EQ(drt.status().code(), common::ErrorCode::kCorruption);
  std::remove(drt_path.c_str());
}

TEST(FailureInjection, ReadsBeyondEofThroughRedirectorAreZero) {
  pfs::HybridPfs pfs(paper_cluster());
  workloads::LanlConfig app;
  app.num_procs = 2;
  app.loops = 8;
  const auto workload = workloads::lanl_app2(app);
  auto original = pfs.create_file(workload.file_name);
  ASSERT_TRUE(original.is_ok());
  ASSERT_TRUE(
      layouts::populate_file(pfs, *original, trace::extent_end(workload.records)).is_ok());
  auto mha = core::MhaPipeline::deploy(pfs, workload);
  ASSERT_TRUE(mha.is_ok());

  io::MpiSim mpi(1);
  auto file = *io::MpiFile::open(pfs, mpi, workload.file_name);
  file.set_interceptor(mha->redirector.get());
  // Far past every region and the original extent: zero-fill, no error.
  auto past = file.read_vec(0, 1_GiB, 4096);
  ASSERT_TRUE(past.is_ok());
  EXPECT_EQ(*past, std::vector<std::uint8_t>(4096, 0));
  // A request straddling the last mapped byte also succeeds.
  const auto extent = trace::extent_end(workload.records);
  auto straddle = file.read_vec(0, extent - 100, 200);
  ASSERT_TRUE(straddle.is_ok());
}

TEST(FailureInjection, ZeroSizeRequestsFlowThroughWholeStack) {
  pfs::HybridPfs pfs(paper_cluster());
  workloads::LanlConfig app;
  app.num_procs = 2;
  app.loops = 8;
  const auto workload = workloads::lanl_app2(app);
  auto original = pfs.create_file(workload.file_name);
  ASSERT_TRUE(original.is_ok());
  auto mha = core::MhaPipeline::deploy(pfs, workload);
  ASSERT_TRUE(mha.is_ok());

  io::MpiSim mpi(1);
  auto file = *io::MpiFile::open(pfs, mpi, workload.file_name);
  file.set_interceptor(mha->redirector.get());
  EXPECT_TRUE(file.read_at(0, 0, nullptr, 0).is_ok());
  EXPECT_TRUE(file.write_at(0, 12345, nullptr, 0).is_ok());
}

// ------------------------------------------------- cross-scheme equality ---

// All four schemes must serve exactly the same bytes for the same workload
// (they differ only in placement), checked pairwise via full-extent reads.
TEST(CrossScheme, AllSchemesServeIdenticalBytes) {
  workloads::IorMixedSizesConfig ior;
  ior.num_procs = 4;
  ior.request_sizes = {8_KiB, 32_KiB};
  ior.file_size = 4_MiB;
  ior.op = OpType::kRead;
  ior.file_name = "same.dat";
  const trace::Trace workload = workloads::ior_mixed_sizes(ior);
  const auto extent = trace::extent_end(workload.records);

  std::vector<std::vector<std::uint8_t>> images;
  for (auto& scheme : layouts::all_schemes()) {
    pfs::HybridPfs pfs(paper_cluster());
    auto deployment = scheme->prepare(pfs, workload);
    ASSERT_TRUE(deployment.is_ok()) << scheme->name();
    io::MpiSim mpi(1);
    auto file = *io::MpiFile::open(pfs, mpi, workload.file_name);
    if (deployment->interceptor != nullptr) {
      file.set_interceptor(deployment->interceptor.get());
    }
    auto image = file.read_vec(0, 0, extent);
    ASSERT_TRUE(image.is_ok()) << scheme->name();
    images.push_back(std::move(*image));
  }
  for (std::size_t i = 1; i < images.size(); ++i) {
    EXPECT_EQ(images[i], images[0]) << "scheme " << i << " diverged";
  }
}

}  // namespace
}  // namespace mha
