// Batch-granularity equivalence: HybridPfs has one request path, and an
// N-request batch (HybridPfs::read_batch/write_batch, MpiFile::*_at_batch,
// the replayer's per-iteration batching) must be OBSERVABLY IDENTICAL to N
// one-request batches (read()/write(), what the replayer issues with
// batching off) — byte-identical extent-store contents, identical
// per-server and per-job accounting, identical Statuses and timings —
// across every (scheme x scheduler x guard) combination, at any thread
// count, and under faults, a guard and a server kill together.  The degraded
// combination is additionally checked against a flat in-memory model of the
// file, the reference that does not share the request path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "core/redirector.hpp"
#include "exec/thread_pool.hpp"
#include "fault/injector.hpp"
#include "guard/guard.hpp"
#include "io/mpi_file.hpp"
#include "layouts/scheme.hpp"
#include "qos/job.hpp"
#include "qos/policy.hpp"
#include "repair/membership.hpp"
#include "repair/rebuilder.hpp"
#include "sched/scheduler.hpp"
#include "test_paths.hpp"
#include "workloads/dlpipe.hpp"
#include "workloads/ior.hpp"
#include "workloads/replayer.hpp"

namespace mha {
namespace {

using namespace mha::common::literals;

// ---------------------------------------------------------------- harness

struct ComboSpec {
  const char* scheme = "DEF";           // DEF | MHA
  const char* workload = "ior";         // ior | dlpipe
  sched::SchedulerKind scheduler = sched::SchedulerKind::kFcfs;
  bool use_scheduler = false;           // false => direct FCFS (null scheduler)
  bool use_guard = false;
  bool use_jobs = false;
};

/// Prints the parameter by name: gtest's default dumps the object's bytes,
/// string pointers included, so the listed test names would change from
/// build to build.
void PrintTo(const ComboSpec& c, std::ostream* os) {
  *os << c.scheme << '/' << c.workload << '/'
      << (c.use_scheduler ? to_string(c.scheduler) : "direct") << (c.use_guard ? "/guard" : "")
      << (c.use_jobs ? "/jobs" : "");
}

std::string combo_name(const ::testing::TestParamInfo<ComboSpec>& info) {
  const ComboSpec& c = info.param;
  std::string name = std::string(c.scheme) + "_" + c.workload;
  name += c.use_scheduler ? std::string("_") + to_string(c.scheduler) : "_direct";
  if (c.use_guard) name += "_guard";
  if (c.use_jobs) name += "_jobs";
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

trace::Trace make_trace(const std::string& kind) {
  if (kind == "dlpipe") {
    workloads::DlPipeConfig config;
    config.num_procs = 6;
    config.sample_size = 96_KiB;  // sub-stripe and unaligned chunks
    config.dataset_size = 3_MiB;
    config.epochs = 2;
    config.seed = 5;
    return workloads::dl_pipeline(config);
  }
  workloads::IorMixedSizesConfig config;
  config.num_procs = 6;
  config.request_sizes = {16_KiB, 96_KiB};
  config.file_size = 4_MiB;
  config.op = common::OpType::kWrite;
  config.per_rank_sizes = true;
  config.file_name = "batch.ior";
  config.seed = 3;
  return workloads::ior_mixed_sizes(config);
}

std::unique_ptr<layouts::LayoutScheme> make_scheme(const std::string& name) {
  return name == "MHA" ? layouts::make_mha() : layouts::make_def();
}

/// Everything one replay leaves behind that equivalence must pin: the full
/// ReplayResult plus the byte-accurate server images (the pfs is kept alive
/// so the stores can be walked after the run).
struct RunOutput {
  common::Status status;
  workloads::ReplayResult result;
  std::unique_ptr<pfs::HybridPfs> pfs;
};

RunOutput run_combo(const ComboSpec& combo, const trace::Trace& trace,
                    bool batch_requests) {
  RunOutput out;
  pfs::PfsOptions pfs_options;
  pfs_options.store_data = true;
  out.pfs = std::make_unique<pfs::HybridPfs>(sim::ClusterConfig{}, pfs_options);

  auto scheme = make_scheme(combo.scheme);
  auto deployment = scheme->prepare(*out.pfs, trace);
  if (!deployment.is_ok()) {
    out.status = deployment.status();
    return out;
  }

  workloads::ReplayOptions options;
  options.batch_requests = batch_requests;

  std::unique_ptr<sched::Scheduler> scheduler;
  if (combo.use_scheduler) {
    scheduler = sched::make_scheduler(combo.scheduler);
    options.scheduler = scheduler.get();
  }
  qos::JobTable jobs;
  if (combo.use_jobs) {
    jobs.assign_ranks(jobs.add("latency", 1.0, qos::PriorityClass::kInteractive), 0, 3);
    jobs.assign_ranks(jobs.add("batch", 2.0, qos::PriorityClass::kBatch), 3, 3);
    options.jobs = &jobs;
  }
  std::unique_ptr<guard::OverloadGuard> overload_guard;
  if (combo.use_guard) {
    overload_guard =
        std::make_unique<guard::OverloadGuard>(out.pfs->num_servers(), guard::GuardOptions{});
    options.guard = overload_guard.get();
    // Finite allowances so deadline stamping and late/goodput accounting are
    // live; generous enough that most requests still land.
    options.goodput_allowance = {2.0, 1.0, 0.5};
    options.tolerate_failures = true;
  }

  auto result = workloads::replay(*out.pfs, *deployment, trace, options);
  if (!result.is_ok()) {
    out.status = result.status();
    return out;
  }
  out.result = std::move(*result);
  return out;
}

void expect_stats_equal(const sim::ServerStats& a, const sim::ServerStats& b,
                        const std::string& where) {
  EXPECT_EQ(a.sub_requests, b.sub_requests) << where;
  EXPECT_EQ(a.bytes_read, b.bytes_read) << where;
  EXPECT_EQ(a.bytes_written, b.bytes_written) << where;
  EXPECT_EQ(a.busy_time, b.busy_time) << where;
  EXPECT_EQ(a.queue_wait, b.queue_wait) << where;
  EXPECT_EQ(a.bytes_wasted, b.bytes_wasted) << where;
}

/// Asserts the two runs are observably identical: replay aggregates,
/// per-server and per-job ledgers, and every byte of every server's stores.
void expect_equivalent(const RunOutput& serial, const RunOutput& batched) {
  ASSERT_TRUE(serial.status.is_ok()) << serial.status.to_string();
  ASSERT_TRUE(batched.status.is_ok()) << batched.status.to_string();
  const workloads::ReplayResult& a = serial.result;
  const workloads::ReplayResult& b = batched.result;

  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.latency_p99, b.latency_p99);
  EXPECT_EQ(a.goodput_bytes, b.goodput_bytes);
  EXPECT_EQ(a.shed_requests, b.shed_requests);
  EXPECT_EQ(a.failed_requests, b.failed_requests);
  EXPECT_EQ(a.late_requests, b.late_requests);

  ASSERT_EQ(a.server_stats.size(), b.server_stats.size());
  for (std::size_t s = 0; s < a.server_stats.size(); ++s) {
    expect_stats_equal(a.server_stats[s], b.server_stats[s],
                       "server " + std::to_string(s));
  }

  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    const qos::TenantLatency& ta = a.tenants[t];
    const qos::TenantLatency& tb = b.tenants[t];
    EXPECT_EQ(ta.requests, tb.requests) << "tenant " << t;
    EXPECT_EQ(ta.bytes, tb.bytes) << "tenant " << t;
    EXPECT_EQ(ta.goodput_bytes, tb.goodput_bytes) << "tenant " << t;
    EXPECT_EQ(ta.shed, tb.shed) << "tenant " << t;
    EXPECT_EQ(ta.failed, tb.failed) << "tenant " << t;
    EXPECT_EQ(ta.late, tb.late) << "tenant " << t;
  }

  // Per-job server ledgers and the byte-accurate content plane.
  ASSERT_EQ(serial.pfs->num_servers(), batched.pfs->num_servers());
  ASSERT_EQ(serial.pfs->mds().file_count(), batched.pfs->mds().file_count());
  for (std::size_t s = 0; s < serial.pfs->num_servers(); ++s) {
    const pfs::DataServer& sa = serial.pfs->data_server(s);
    const pfs::DataServer& sb = batched.pfs->data_server(s);
    const auto& rows_a = sa.sim().job_stats();
    const auto& rows_b = sb.sim().job_stats();
    ASSERT_EQ(rows_a.size(), rows_b.size()) << "server " << s;
    for (std::size_t j = 0; j < rows_a.size(); ++j) {
      const std::string where = "server " + std::to_string(s) + " job " + std::to_string(j);
      EXPECT_EQ(rows_a[j].sub_requests, rows_b[j].sub_requests) << where;
      EXPECT_EQ(rows_a[j].bytes_read, rows_b[j].bytes_read) << where;
      EXPECT_EQ(rows_a[j].bytes_written, rows_b[j].bytes_written) << where;
      EXPECT_EQ(rows_a[j].busy_time, rows_b[j].busy_time) << where;
      EXPECT_EQ(rows_a[j].queue_wait, rows_b[j].queue_wait) << where;
      EXPECT_EQ(rows_a[j].bytes_wasted, rows_b[j].bytes_wasted) << where;
    }
    for (common::FileId f = 0; f < serial.pfs->mds().file_count(); ++f) {
      const pfs::ExtentStore* store_a = sa.store(f);
      const pfs::ExtentStore* store_b = sb.store(f);
      ASSERT_EQ(store_a == nullptr, store_b == nullptr)
          << "server " << s << " file " << f;
      if (store_a == nullptr) continue;
      const std::string where = "server " + std::to_string(s) + " file " + std::to_string(f);
      EXPECT_EQ(store_a->stored_bytes(), store_b->stored_bytes()) << where;
      EXPECT_EQ(store_a->extent_count(), store_b->extent_count()) << where;
      ASSERT_EQ(store_a->end_offset(), store_b->end_offset()) << where;
      EXPECT_EQ(store_a->read(0, store_a->end_offset()),
                store_b->read(0, store_b->end_offset()))
          << where;
    }
  }
}

// --------------------------------------------------- replay-level sweeps

class BatchEquivalence : public ::testing::TestWithParam<ComboSpec> {};

TEST_P(BatchEquivalence, BatchedReplayMatchesSerial) {
  const ComboSpec combo = GetParam();
  const trace::Trace trace = make_trace(combo.workload);
  RunOutput serial = run_combo(combo, trace, /*batch_requests=*/false);
  RunOutput batched = run_combo(combo, trace, /*batch_requests=*/true);
  expect_equivalent(serial, batched);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, BatchEquivalence,
    ::testing::Values(
        ComboSpec{"DEF", "ior"}, ComboSpec{"MHA", "ior"}, ComboSpec{"MHA", "dlpipe"},
        ComboSpec{"DEF", "ior", sched::SchedulerKind::kLoadAware, true},
        ComboSpec{"MHA", "ior", sched::SchedulerKind::kHedgedRead, true},
        ComboSpec{"MHA", "dlpipe", sched::SchedulerKind::kLoadAware, true},
        ComboSpec{"DEF", "ior", sched::SchedulerKind::kFcfs, false, true, false},
        ComboSpec{"MHA", "ior", sched::SchedulerKind::kFcfs, false, true, true},
        ComboSpec{"MHA", "ior", sched::SchedulerKind::kFcfs, false, false, true},
        ComboSpec{"MHA", "dlpipe", sched::SchedulerKind::kFcfs, false, true, true}),
    combo_name);

// Thread-count invariance: the same combos fanned out on an 8-thread pool
// must report the results the 1-thread loop above produced — replay is
// deterministic and the batch path shares nothing across cells.
TEST(BatchEquivalenceThreads, EightThreadPoolMatchesSerialLoop) {
  const std::vector<ComboSpec> combos = {
      ComboSpec{"DEF", "ior"},
      ComboSpec{"MHA", "dlpipe"},
      ComboSpec{"MHA", "ior", sched::SchedulerKind::kLoadAware, true},
      ComboSpec{"MHA", "ior", sched::SchedulerKind::kFcfs, false, true, true},
  };
  std::vector<RunOutput> serial;
  for (const ComboSpec& combo : combos) {
    serial.push_back(run_combo(combo, make_trace(combo.workload), true));
  }
  const std::size_t saved = exec::default_threads();
  exec::set_default_threads(8);
  auto pooled = exec::default_pool().parallel_map(combos.size(), [&](std::size_t i) {
    return run_combo(combos[i], make_trace(combos[i].workload), true);
  });
  exec::set_default_threads(saved);
  for (std::size_t i = 0; i < combos.size(); ++i) {
    expect_equivalent(serial[i], pooled[i]);
  }
}

// ------------------------------- faults + guard + kill + rebuild together

/// IOR writes, each write iteration followed by a read-back iteration of the
/// same ranges, so the kill at the middle barrier lands between writes (which
/// then mirror or fail over) and reads (which then retarget to replicas).
trace::Trace degraded_trace() {
  workloads::IorMixedSizesConfig config;
  config.num_procs = 6;
  config.request_sizes = {16_KiB, 96_KiB};
  config.file_size = 4_MiB;
  config.op = common::OpType::kWrite;
  config.per_rank_sizes = true;
  config.file_name = "degraded.ior";
  config.seed = 11;
  const trace::Trace writes = workloads::ior_mixed_sizes(config);
  std::map<common::Seconds, std::vector<trace::TraceRecord>> iterations;
  for (const trace::TraceRecord& r : writes.records) iterations[r.t_start].push_back(r);
  trace::Trace trace = writes;
  trace.records.clear();
  double t = 0.0;
  for (const auto& [start, records] : iterations) {
    for (trace::TraceRecord r : records) {
      r.t_start = t;
      trace.records.push_back(r);
    }
    for (trace::TraceRecord r : records) {
      r.op = common::OpType::kRead;
      r.t_start = t + 1.0;
      trace.records.push_back(r);
    }
    t += 2.0;
  }
  return trace;
}

/// A degraded replay's outcome beyond RunOutput: the fault, guard and
/// failover ledgers, and the file as the client sees it afterwards.
struct DegradedRun {
  RunOutput out;
  fault::FaultMetrics fault;
  guard::GuardMetrics guard;
  pfs::FailoverStats failover;
  repair::RebuildReport rebuild;
  /// The file's bytes over every traced range (zero elsewhere), read back
  /// through the redirector after the rebuild finished.
  std::vector<std::uint8_t> logical;
};

/// perfbench `degraded` in miniature: two tenants under job-fair QoS, an
/// overload guard with per-tier deadlines, brownout / transient / crash
/// fault windows, HServer 0 killed at the middle barrier and a throttled
/// rebuilder stepped at every later barrier, then drained.
DegradedRun run_degraded(const trace::Trace& trace, bool batch_requests) {
  DegradedRun run;
  run.out.pfs = std::make_unique<pfs::HybridPfs>(sim::ClusterConfig{});
  pfs::HybridPfs& pfs = *run.out.pfs;
  core::MhaOptions mha;
  mha.replicate_hot = true;
  auto prepared = layouts::make_mha(mha)->prepare(pfs, trace);
  if (!prepared.is_ok()) {
    run.out.status = prepared.status();
    return run;
  }
  layouts::Deployment deployment = std::move(prepared).take();
  auto* redirector = static_cast<core::Redirector*>(deployment.interceptor.get());

  qos::JobTable jobs;
  jobs.assign_ranks(jobs.add("latency", 1.0, qos::PriorityClass::kInteractive), 0, 3);
  jobs.assign_ranks(jobs.add("batch", 2.0, qos::PriorityClass::kBatch), 3, 3);
  const common::JobId rebuild_job = jobs.add("rebuild", 1.0, qos::PriorityClass::kBatch);
  auto scheduler = qos::make_qos_scheduler(qos::QosKind::kJobFair, jobs);

  fault::FaultInjector injector(29);
  for (std::size_t s : {std::size_t{1}, std::size_t{2}}) {
    fault::FaultWindow w;
    w.server = s;
    w.kind = fault::FaultKind::kBrownout;
    w.start = 0.01;
    w.end = 1e9;
    w.factor = 4.0;
    injector.add(w);
  }
  for (std::size_t s : {std::size_t{1}, std::size_t{6}}) {
    fault::FaultWindow w;
    w.server = s;
    w.kind = fault::FaultKind::kTransient;
    w.start = 0.01;
    w.end = 1e9;
    w.probability = 0.1;
    injector.add(w);
  }
  fault::FaultWindow crash;
  crash.server = 3;
  crash.kind = fault::FaultKind::kCrash;
  crash.start = 0.05;
  crash.end = 0.15;
  injector.add(crash);
  fault::FaultContext fault_context(injector, {}, 31);
  guard::OverloadGuard guard(pfs.num_servers(), guard::GuardOptions{});
  repair::Membership membership(pfs.num_servers());
  pfs.set_membership(&membership);

  const std::string journal = test::temp_path("batch_degraded", ".journal");
  std::remove(journal.c_str());
  repair::RebuildOptions rebuild;
  rebuild.chunk = 64_KiB;
  rebuild.rate = 16.0 * 1024.0 * 1024.0;
  rebuild.job = rebuild_job;
  repair::Rebuilder rebuilder(pfs, *redirector, membership, journal, rebuild);

  std::set<common::Seconds> starts;
  for (const trace::TraceRecord& r : trace.records) starts.insert(r.t_start);
  const std::size_t kill_barrier = starts.size() / 2;
  std::size_t barriers = 0;
  common::Status repair_status;
  workloads::ReplayOptions options;
  options.batch_requests = batch_requests;
  options.verify_data = true;
  options.jobs = &jobs;
  options.scheduler = scheduler.get();
  options.fault_context = &fault_context;
  options.guard = &guard;
  options.goodput_allowance = {2.0, 1.0, 0.5};
  options.tolerate_failures = true;
  options.on_barrier = [&](common::Seconds now) {
    ++barriers;
    if (!repair_status.is_ok()) return;
    if (barriers == kill_barrier) {
      repair::kill_server(membership, pfs, 0, now, &injector);
      repair_status = rebuilder.plan(now);
    } else if (rebuilder.planned() && !rebuilder.done()) {
      repair_status = rebuilder.step(now);
    }
  };
  auto result = workloads::replay(pfs, deployment, trace, options);
  if (!result.is_ok()) {
    run.out.status = result.status();
    return run;
  }
  run.out.result = std::move(*result);
  run.out.status = repair_status;
  if (run.out.status.is_ok()) {
    run.out.status = rebuilder.run_to_completion(run.out.result.makespan);
  }
  std::remove(journal.c_str());
  run.fault = injector.metrics();
  run.guard = guard.metrics();
  run.failover = pfs.failover_stats();
  run.rebuild = rebuilder.report();

  io::MpiSim mpi(1);
  auto file = io::MpiFile::open(pfs, mpi, trace.file_name);
  if (!file.is_ok()) {
    run.out.status = file.status();
    return run;
  }
  file->set_interceptor(deployment.interceptor.get());
  run.logical.assign(trace::extent_end(trace.records), 0);
  for (const trace::TraceRecord& r : trace.records) {
    auto read = file->read_at(0, r.offset, run.logical.data() + r.offset, r.size);
    if (!read.is_ok()) {
      run.out.status = read.status();
      break;
    }
  }
  return run;
}

TEST(BatchDegraded, FaultGuardKillRebuildMatchesOneRequestBatchesAndFlatModel) {
  const trace::Trace trace = degraded_trace();
  DegradedRun one = run_degraded(trace, /*batch_requests=*/false);
  DegradedRun many = run_degraded(trace, /*batch_requests=*/true);
  expect_equivalent(one.out, many.out);
  EXPECT_EQ(one.fault.table(), many.fault.table());
  EXPECT_EQ(one.fault.backoff_seconds, many.fault.backoff_seconds);
  EXPECT_EQ(one.guard.table(), many.guard.table());
  EXPECT_EQ(one.failover.failover_reads, many.failover.failover_reads);
  EXPECT_EQ(one.failover.failover_bytes, many.failover.failover_bytes);
  EXPECT_EQ(one.failover.failover_writes, many.failover.failover_writes);
  EXPECT_EQ(one.failover.mirrored_writes, many.failover.mirrored_writes);
  EXPECT_EQ(one.failover.mirror_bytes, many.failover.mirror_bytes);
  EXPECT_EQ(one.failover.unavailable, many.failover.unavailable);
  EXPECT_EQ(one.rebuild.bytes_copied, many.rebuild.bytes_copied);

  // The combination really ran: faults retried and degraded reads, the
  // crash parked writes in the redo log, a breaker rerouted reads, the kill
  // failed requests over, writes mirrored, and the rebuild re-homed the lost
  // region.
  EXPECT_GT(one.out.result.requests, 0u);
  EXPECT_GT(one.fault.retries, 0u);
  EXPECT_GT(one.fault.degraded_reads, 0u);
  EXPECT_GT(one.fault.redo_replayed, 0u);
  EXPECT_GT(one.guard.breaker_reroutes, 0u);
  EXPECT_GT(one.failover.failover_reads, 0u);
  EXPECT_GT(one.failover.mirrored_writes, 0u);
  EXPECT_GT(one.rebuild.bytes_copied, 0u);
  EXPECT_EQ(one.failover.unavailable, 0u);

  // Flat model: the populate pattern, overwritten by every write iteration
  // in order.  A failed write may already have stored its bytes, so the
  // model holds only while every request completed.
  ASSERT_EQ(one.out.result.failed_requests + one.out.result.shed_requests, 0u);
  std::vector<std::uint8_t> model(one.logical.size());
  layouts::populate_fill(0, model.data(), model.size());
  for (const trace::TraceRecord& r : trace.records) {
    if (r.op != common::OpType::kWrite) continue;
    workloads::replay_write_fill(r.offset, model.data() + r.offset, r.size);
  }
  std::vector<std::uint8_t> expected(model.size(), 0);
  for (const trace::TraceRecord& r : trace.records) {
    std::copy_n(model.begin() + static_cast<std::ptrdiff_t>(r.offset), r.size,
                expected.begin() + static_cast<std::ptrdiff_t>(r.offset));
  }
  EXPECT_TRUE(one.logical == expected);
  EXPECT_TRUE(many.logical == expected);
}

// ------------------------------------------------ pfs-level direct tests

struct PfsWorld {
  pfs::HybridPfs pfs{sim::ClusterConfig{}};
  common::FileId file = 0;
  PfsWorld() { file = *pfs.create_file("direct.f"); }
};

pfs::BatchRequest make_req(common::FileId file, common::Offset offset,
                           common::ByteCount size, std::uint32_t group,
                           const std::uint8_t* write_data = nullptr,
                           std::uint8_t* read_out = nullptr) {
  pfs::BatchRequest r;
  r.file = file;
  r.offset = offset;
  r.size = size;
  r.group = group;
  r.write_data = write_data;
  r.read_out = read_out;
  return r;
}

TEST(BatchDirect, BadFileIdMatchesSerialStatus) {
  PfsWorld world;
  std::vector<std::uint8_t> data(4_KiB, 0x11);
  const common::Status serial =
      world.pfs.write(world.file + 1, 0, data.data(), data.size(), 0.0).status();
  ASSERT_FALSE(serial.is_ok());

  std::vector<pfs::BatchRequest> reqs = {
      make_req(world.file + 1, 0, data.size(), 0, data.data())};
  pfs::BatchResultVec results;
  world.pfs.write_batch(reqs, results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].status.is_ok());
  EXPECT_EQ(results[0].status.to_string(), serial.to_string());
  EXPECT_FALSE(results[0].skipped);
}

TEST(BatchDirect, GroupMembersAfterFailureAreSkipped) {
  PfsWorld world;
  std::vector<std::uint8_t> data(8_KiB, 0x22);
  // Group 0: a failing member (bad file) then a sibling that must be
  // skipped, never dispatched.  Group 1: an independent request that must
  // still land.
  std::vector<pfs::BatchRequest> reqs = {
      make_req(world.file + 7, 0, 4_KiB, 0, data.data()),
      make_req(world.file, 4_KiB, 4_KiB, 0, data.data()),
      make_req(world.file, 64_KiB, 4_KiB, 1, data.data())};
  pfs::BatchResultVec results;
  world.pfs.write_batch(reqs, results);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].status.is_ok());
  EXPECT_TRUE(results[1].skipped);
  EXPECT_TRUE(results[1].status.is_ok());
  EXPECT_EQ(results[1].io.sub_requests, 0u);
  EXPECT_FALSE(results[2].skipped);
  EXPECT_TRUE(results[2].status.is_ok());
  EXPECT_GT(results[2].io.sub_requests, 0u);

  // The skipped member wrote nothing anywhere.
  common::ByteCount stored = 0;
  for (std::size_t s = 0; s < world.pfs.num_servers(); ++s) {
    stored += world.pfs.data_server(s).stored_bytes(world.file);
  }
  EXPECT_EQ(stored, 4_KiB);
}

TEST(BatchDirect, ZeroSizeRequestMatchesSerial) {
  PfsWorld world;
  std::vector<std::uint8_t> data(1, 0x33);
  auto serial = world.pfs.write(world.file, 0, data.data(), 0, 0.0);
  std::vector<pfs::BatchRequest> reqs = {make_req(world.file, 0, 0, 0, data.data())};
  pfs::BatchResultVec results;
  world.pfs.write_batch(reqs, results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.is_ok(), serial.is_ok());
  if (serial.is_ok()) {
    EXPECT_EQ(results[0].io.sub_requests, serial->sub_requests);
    EXPECT_EQ(results[0].io.completion, serial->completion);
  }
}

TEST(BatchDirect, OverlappingWritesResolveInBatchOrder) {
  // Two same-batch writes overlapping by half: later-in-batch must win on
  // the overlap, exactly as two serial writes would.
  std::vector<std::uint8_t> first(8_KiB, 0xAA);
  std::vector<std::uint8_t> second(8_KiB, 0xBB);

  PfsWorld serial_world;
  (void)serial_world.pfs.write(serial_world.file, 0, first.data(), first.size(), 0.0);
  (void)serial_world.pfs.write(serial_world.file, 4_KiB, second.data(), second.size(),
                               0.0);

  PfsWorld batch_world;
  std::vector<pfs::BatchRequest> reqs = {
      make_req(batch_world.file, 0, first.size(), 0, first.data()),
      make_req(batch_world.file, 4_KiB, second.size(), 1, second.data())};
  pfs::BatchResultVec results;
  batch_world.pfs.write_batch(reqs, results);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].status.is_ok());
  ASSERT_TRUE(results[1].status.is_ok());

  ASSERT_EQ(serial_world.pfs.num_servers(), batch_world.pfs.num_servers());
  for (std::size_t s = 0; s < serial_world.pfs.num_servers(); ++s) {
    const pfs::ExtentStore* store_a = serial_world.pfs.data_server(s).store(serial_world.file);
    const pfs::ExtentStore* store_b = batch_world.pfs.data_server(s).store(batch_world.file);
    ASSERT_EQ(store_a == nullptr, store_b == nullptr) << "server " << s;
    if (store_a == nullptr) continue;
    ASSERT_EQ(store_a->end_offset(), store_b->end_offset()) << "server " << s;
    EXPECT_EQ(store_a->read(0, store_a->end_offset()),
              store_b->read(0, store_b->end_offset()))
        << "server " << s;
  }
}

TEST(BatchDirect, CorruptionFallsBackToSerialStatus) {
  // Seed identical content into two worlds, corrupt the same stored byte in
  // both, and compare the batched read (which verifies coalesced runs, then
  // reruns one request at a time on failure) against one-request reads.
  std::vector<std::uint8_t> data(256_KiB);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  PfsWorld serial_world;
  PfsWorld batch_world;
  (void)serial_world.pfs.write(serial_world.file, 0, data.data(), data.size(), 0.0);
  (void)batch_world.pfs.write(batch_world.file, 0, data.data(), data.size(), 0.0);
  for (pfs::HybridPfs* p : {&serial_world.pfs, &batch_world.pfs}) {
    pfs::ExtentStore* store = p->data_server(0).mutable_store(0);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->corrupt_flip(1024, 0x40));
  }

  std::vector<std::uint8_t> serial_out(data.size(), 0xEE);
  common::Status first_failure;
  common::Offset pos = 0;
  for (std::size_t i = 0; i < 4; ++i, pos += 64_KiB) {
    auto r = serial_world.pfs.read(serial_world.file, pos, serial_out.data() + pos,
                                   64_KiB, 0.0);
    if (!r.is_ok() && first_failure.is_ok()) first_failure = r.status();
  }
  ASSERT_FALSE(first_failure.is_ok());

  std::vector<std::uint8_t> batch_out(data.size(), 0xEE);
  std::vector<pfs::BatchRequest> reqs;
  for (std::size_t i = 0; i < 4; ++i) {
    reqs.push_back(make_req(batch_world.file, static_cast<common::Offset>(i) * 64_KiB,
                            64_KiB, static_cast<std::uint32_t>(i), nullptr,
                            batch_out.data() + i * 64_KiB));
  }
  pfs::BatchResultVec results;
  batch_world.pfs.read_batch(reqs, results);
  ASSERT_EQ(results.size(), 4u);
  std::size_t failures = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    if (!results[i].status.is_ok()) {
      ++failures;
      EXPECT_EQ(results[i].status.to_string(), first_failure.to_string());
    }
  }
  EXPECT_EQ(failures, 1u);
  // Bytes delivered are identical to the serial reads (including the
  // untouched destination of the failing request).
  EXPECT_EQ(batch_out, serial_out);
}

// ------------------------------------------------ clients sharing one pfs

// N clients share one HybridPfs, each on its own thread behind one mutex
// (the external synchronisation a HybridPfs needs).  Job and deadline travel
// in every request, so the interleaving of the clients' calls cannot move a
// byte from one tenant's ledger to another's.
TEST(BatchClients, FourThreadsChargeOnlyTheirOwnJob) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequests = 48;
  constexpr common::ByteCount kSize = 16_KiB;
  pfs::HybridPfs pfs{sim::ClusterConfig{}};
  std::mutex mu;  // guards pfs while the clients run
  const common::FileId file = *pfs.create_file("clients.f");
  // Deadlines are enforced only under a guard; nothing is shed and no
  // deadline is missed, so every byte lands.
  guard::GuardOptions guard_options;
  guard_options.shed_backlog = {std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::infinity()};
  guard::OverloadGuard overload_guard(pfs.num_servers(), guard_options);
  pfs.set_guard(&overload_guard);

  // Each client writes only its own slot of these; they are read after join.
  std::vector<common::ByteCount> moved(kClients, 0);
  std::vector<std::size_t> failures(kClients, 0);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const auto job = static_cast<common::JobId>(c + 1);
      const std::vector<std::uint8_t> data(kSize, static_cast<std::uint8_t>(0x10 + c));
      std::vector<std::uint8_t> back(kSize);
      pfs::BatchResultVec results;
      for (std::size_t i = 0; i < kRequests; ++i) {
        // Disjoint ranges per client; each request's deadline is its own.
        const common::Offset offset = (c * kRequests + i) * kSize;
        const common::Seconds arrival = static_cast<double>(i) * 1e-3;
        const common::Seconds deadline = arrival + 1e6;
        std::lock_guard<std::mutex> lock(mu);
        if (!pfs.write(file, offset, data.data(), kSize, arrival, job, deadline).is_ok()) {
          ++failures[c];
          continue;
        }
        pfs::BatchRequest read;
        read.file = file;
        read.offset = offset;
        read.size = kSize;
        read.read_out = back.data();
        read.arrival = arrival;
        read.job = job;
        read.deadline = deadline;
        pfs.read_batch({&read, 1}, results);
        if (!results[0].status.is_ok() || back != data) {
          ++failures[c];
          continue;
        }
        moved[c] += 2 * kSize;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  pfs.set_guard(nullptr);

  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0u) << "client " << c;
    EXPECT_EQ(moved[c], 2 * kRequests * kSize) << "client " << c;
    common::ByteCount charged = 0;
    for (std::size_t s = 0; s < pfs.num_servers(); ++s) {
      const sim::JobServerStats& row = pfs.data_server(s).sim().job_stats(
          static_cast<common::JobId>(c + 1));
      charged += row.bytes_read + row.bytes_written;
    }
    EXPECT_EQ(charged, moved[c]) << "client " << c;
  }
  // The per-job rows add up to each server's aggregate, and job 0 was never
  // charged.
  for (std::size_t s = 0; s < pfs.num_servers(); ++s) {
    const sim::ServerStats& total = pfs.server_stats(s);
    const auto& rows = pfs.data_server(s).sim().job_stats();
    std::uint64_t subs = 0;
    common::ByteCount read = 0, written = 0;
    for (const sim::JobServerStats& row : rows) {
      subs += row.sub_requests;
      read += row.bytes_read;
      written += row.bytes_written;
    }
    EXPECT_EQ(subs, total.sub_requests) << "server " << s;
    EXPECT_EQ(read, total.bytes_read) << "server " << s;
    EXPECT_EQ(written, total.bytes_written) << "server " << s;
    const sim::JobServerStats& idle = pfs.data_server(s).sim().job_stats(common::kDefaultJob);
    EXPECT_EQ(idle.bytes_read + idle.bytes_written, 0u) << "server " << s;
  }
}

}  // namespace
}  // namespace mha
