#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "common/alloc_counter.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "fault/context.hpp"
#include "guard/chaos.hpp"
#include "io/mpi_file.hpp"
#include "io/mpi_sim.hpp"
#include "kv/kvstore.hpp"
#include "layouts/scheme.hpp"
#include "pfs/extent_store.hpp"
#include "qos/driver.hpp"
#include "qos/policy.hpp"
#include "repair/membership.hpp"
#include "trace/analysis.hpp"
#include "workloads/apps.hpp"
#include "workloads/ior.hpp"
#include "workloads/replayer.hpp"

namespace perfbench {

namespace {

using namespace mha;
using common::ByteCount;
using common::Seconds;
using common::Status;

constexpr ByteCount kKiB = 1024;
constexpr ByteCount kMiB = 1024 * 1024;

// ----------------------------------------------------------- parameters ----
// Sizes are fixed, and the seed only moves what leaves the amount of work
// alone (offsets, orders, fault draws), so every seed measures the same work.

// plan: the four planning inputs at half the paper's figure sizes.
constexpr int kPlanProcs = 8;
constexpr int kCholeskyPanels = 96;
constexpr int kLuSlabs = 64;
constexpr int kLanlLoops = 128;
constexpr int kIorProcs = 32;
constexpr ByteCount kIorFileSize = 128 * kMiB;
constexpr int kTimingOnlyPasses = 4;  // replays of each trace per untraced repetition

// serve: random-offset 4-64 KiB requests over one file, iterations cycling
// read, read, write.
constexpr int kServeRanks = 8;
constexpr int kServeIterations = 150;
constexpr ByteCount kServeFileSize = 16 * kMiB;
constexpr ByteCount kServeBlock = 4 * kKiB;
constexpr std::uint64_t kServeMaxBlocks = 16;

// writeback: LANL App2 write loops, then a read-back of the last loops.
constexpr int kWritebackProcs = 4;
constexpr int kWritebackLoops = 36;
constexpr int kReadBackLoops = 8;
constexpr ByteCount kLanlLoopBytes = 256 * kKiB;  // 16 B + (128 KiB - 16 B) + 128 KiB
constexpr ByteCount kCachePage = 64 * kKiB;
constexpr std::size_t kCachePages = 256;  // 16 MiB pool

// degraded: a three-tier tenant mix on MHA with hot-region replicas.
constexpr std::size_t kVictimServer = 0;  // an HServer
constexpr std::size_t kCrashedHserver = 3;

// ------------------------------------------------------------------ traces --

trace::TraceRecord make_record(int rank, common::OpType op, common::Offset offset,
                               ByteCount size, std::size_t step) {
  trace::TraceRecord r;
  r.pid = 1000 + static_cast<std::uint32_t>(rank);
  r.rank = rank;
  r.fd = 3;
  r.op = op;
  r.offset = offset;
  r.size = size;
  r.t_start = static_cast<double>(step) * workloads::kIterationSpacing;
  return r;
}

std::vector<trace::Trace> plan_traces(std::uint64_t seed) {
  std::vector<trace::Trace> traces;
  // The factorisation's panel structure is the application's own fixed
  // input (its generator seed changes the request-size mix, and so the
  // planning work); the benchmark seed moves the IOR offsets.
  workloads::CholeskyConfig cholesky;
  cholesky.num_procs = kPlanProcs;
  cholesky.panels = kCholeskyPanels;
  traces.push_back(workloads::sparse_cholesky(cholesky));
  workloads::LuConfig lu;
  lu.num_procs = kPlanProcs;
  lu.slabs = kLuSlabs;
  traces.push_back(workloads::lu_decomposition(lu));
  workloads::LanlConfig lanl;
  lanl.num_procs = kPlanProcs;
  lanl.loops = kLanlLoops;
  traces.push_back(workloads::lanl_app2(lanl));
  workloads::IorMixedSizesConfig ior;
  ior.num_procs = kIorProcs;
  ior.request_sizes = {128 * kKiB, 256 * kKiB};
  ior.file_size = kIorFileSize;
  ior.op = common::OpType::kRead;
  ior.seed = seed;
  traces.push_back(workloads::ior_mixed_sizes(ior));
  return traces;
}

trace::Trace serve_trace(std::uint64_t seed) {
  trace::Trace trace;
  trace.file_name = "serve.data";
  common::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  const std::uint64_t file_blocks = kServeFileSize / kServeBlock;
  // Every iteration issues the same size multiset (cycling through 4-64 KiB)
  // so each seed moves the same bytes; the seed deals the sizes to ranks and
  // draws the offsets.
  std::vector<std::uint64_t> blocks(kServeRanks);
  for (int it = 0; it < kServeIterations; ++it) {
    const common::OpType op = it % 3 == 2 ? common::OpType::kWrite : common::OpType::kRead;
    for (int rank = 0; rank < kServeRanks; ++rank) {
      blocks[static_cast<std::size_t>(rank)] =
          1 + static_cast<std::uint64_t>(it * kServeRanks + rank) % kServeMaxBlocks;
    }
    rng.shuffle(blocks);
    for (int rank = 0; rank < kServeRanks; ++rank) {
      const std::uint64_t n = blocks[static_cast<std::size_t>(rank)];
      const std::uint64_t first = rng.next_below(file_blocks - n + 1);
      trace.records.push_back(make_record(rank, op, first * kServeBlock, n * kServeBlock,
                                          static_cast<std::size_t>(it)));
    }
  }
  return trace;
}

trace::Trace writeback_trace(std::uint64_t seed) {
  workloads::LanlConfig config;
  config.num_procs = kWritebackProcs;
  config.loops = kWritebackLoops;
  trace::Trace trace = workloads::lanl_app2(config);
  // Read back the last loops' ranges in a seeded loop order: each read
  // iteration mirrors one write iteration (same piece on every rank).
  const std::size_t write_iterations = trace.records.size() / kWritebackProcs;
  const std::size_t first_read = write_iterations - kReadBackLoops * 3;
  std::vector<std::size_t> order(kReadBackLoops * 3);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = first_read + i;
  common::Rng rng(seed * 0x2545F4914F6CDD1DULL + 3);
  rng.shuffle(order);
  for (std::size_t k = 0; k < order.size(); ++k) {
    for (int rank = 0; rank < kWritebackProcs; ++rank) {
      const trace::TraceRecord& w =
          trace.records[order[k] * kWritebackProcs + static_cast<std::size_t>(rank)];
      trace.records.push_back(make_record(rank, common::OpType::kRead, w.offset, w.size,
                                          write_iterations + k));
    }
  }
  return trace;
}

/// Three tiers in the guard::chaos_tenants shape: a batch-tier large-write
/// aggressor, a normal-tier HPIO tenant and an interactive small-read tenant,
/// each in its own region of one shared file.  The tenants' generator seeds
/// are fixed (they change request sizes, and so the work); the benchmark
/// seed drives the fault draws instead.
std::vector<qos::TenantSpec> degraded_tenants() {
  std::vector<qos::TenantSpec> tenants(3);
  tenants[0].name = "batch-write";
  tenants[0].workload = qos::TenantWorkload::kIorLarge;
  tenants[0].clients = 4;
  tenants[0].priority = qos::PriorityClass::kBatch;
  tenants[0].bytes_per_client = 2 * kMiB;
  tenants[0].seed = 101;
  tenants[1].name = "norm-hpio";
  tenants[1].workload = qos::TenantWorkload::kHpio;
  tenants[1].clients = 8;
  tenants[1].priority = qos::PriorityClass::kNormal;
  tenants[1].bytes_per_client = 1 * kMiB;
  tenants[1].seed = 102;
  tenants[2].name = "inter-read";
  tenants[2].workload = qos::TenantWorkload::kIorSmall;
  tenants[2].clients = 8;
  tenants[2].priority = qos::PriorityClass::kInteractive;
  tenants[2].bytes_per_client = 2 * kMiB;
  tenants[2].seed = 103;
  return tenants;
}

std::size_t count_iterations(const trace::Trace& trace) {
  std::set<double> starts;
  for (const trace::TraceRecord& r : trace.records) starts.insert(r.t_start);
  return starts.size();
}

int rank_count(const trace::Trace& trace) {
  int ranks = 0;
  for (const trace::TraceRecord& r : trace.records) ranks = std::max(ranks, r.rank + 1);
  return ranks;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t plan_hash(std::uint64_t h, const core::MhaPlan& plan) {
  h = fnv(h, plan.plan.regions.size());
  for (std::size_t g = 0; g < plan.plan.regions.size(); ++g) {
    const core::Region& region = plan.plan.regions[g];
    for (char c : region.name) h = fnv(h, static_cast<unsigned char>(c));
    h = fnv(h, region.length);
    h = fnv(h, region.record_count);
    h = fnv(h, plan.stripe_pairs[g].h);
    h = fnv(h, plan.stripe_pairs[g].s);
  }
  return fnv(h, plan.plan.drt.size());
}

// --------------------------------------------------------------- traced ----

/// Forwards every IoInterceptor virtual to the deployment's redirector and
/// times translate as a "core.translate" span.
class TimedInterceptor final : public io::IoInterceptor {
 public:
  TimedInterceptor(std::unique_ptr<core::Redirector> inner, SpanRecorder& spans,
                   LayerCounts& counts)
      : inner_(std::move(inner)), spans_(spans), counts_(counts) {}

  using io::IoInterceptor::translate;
  void translate(common::Offset offset, ByteCount size, io::SegmentList& out) override {
    const std::int32_t id = spans_.begin("core.translate");
    inner_->translate(offset, size, out);
    spans_.end(id);
    note(out);
  }
  void translate(common::Offset offset, ByteCount size, io::SegmentList& out,
                 io::TranslateCursor& cursor) override {
    const std::int32_t id = spans_.begin("core.translate");
    inner_->translate(offset, size, out, cursor);
    spans_.end(id);
    note(out);
  }
  Seconds lookup_overhead() const override { return inner_->lookup_overhead(); }
  void note_write(common::Offset offset, ByteCount size) override {
    inner_->note_write(offset, size);
  }
  std::string locate(common::Offset offset) const override { return inner_->locate(offset); }

 private:
  void note(const io::SegmentList& out) {
    ++counts_.translate_calls;
    counts_.translate_segments += out.size();
  }

  std::unique_ptr<core::Redirector> inner_;
  SpanRecorder& spans_;
  LayerCounts& counts_;
};

/// MhaPipeline::deploy, stage by stage, with a span around each public call.
/// The plan is checked against MhaPipeline::analyze so the spans measure the
/// same program the end-to-end runs time.
common::Result<core::MhaDeployment> staged_deploy(pfs::HybridPfs& pfs,
                                                  const trace::Trace& trace,
                                                  const core::MhaOptions& options,
                                                  SpanRecorder& spans,
                                                  LayerCounts& counts) {
  std::vector<std::uint32_t> concurrency;
  {
    ScopedSpan span(&spans, "trace.concurrency");
    concurrency = trace::request_concurrency(trace.records, options.analysis);
  }
  std::vector<core::FeaturePoint> points;
  points.reserve(trace.records.size());
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    points.push_back(core::FeaturePoint{static_cast<double>(trace.records[i].size),
                                        static_cast<double>(concurrency[i])});
  }
  core::MhaDeployment deployment;
  core::MhaPlan& plan = deployment.plan;
  {
    ScopedSpan span(&spans, "core.grouping");
    plan.grouping = core::group_requests_auto(points, options.grouping);
  }
  {
    ScopedSpan span(&spans, "core.reorganize");
    auto built = core::build_plan(trace, plan.grouping.assignment, concurrency,
                                  plan.grouping.num_groups, options.reorganizer);
    if (!built.is_ok()) return built.status();
    plan.plan = std::move(built).take();
  }
  const core::CostModel model(core::CostParams::from_cluster(pfs.config()),
                              options.concurrency_aware);
  for (const core::Region& region : plan.plan.regions) {
    ScopedSpan span(&spans, "core.rssd");
    auto rssd = core::determine_stripes(model, region.requests, options.rssd);
    if (!rssd.is_ok()) return rssd.status();
    plan.stripe_pairs.push_back(rssd->best);
    plan.region_costs.push_back(rssd->best_cost);
    counts.rssd_pairs += rssd->pairs_evaluated;
  }

  // Equivalence: the staged plan must be exactly the pipeline's plan.
  auto reference = core::MhaPipeline::analyze(pfs.config(), trace, options);
  if (!reference.is_ok()) return reference.status();
  bool same = reference->grouping.assignment == plan.grouping.assignment &&
              reference->stripe_pairs == plan.stripe_pairs &&
              reference->plan.drt.size() == plan.plan.drt.size() &&
              reference->plan.regions.size() == plan.plan.regions.size();
  for (std::size_t g = 0; same && g < plan.plan.regions.size(); ++g) {
    const core::Region& a = reference->plan.regions[g];
    const core::Region& b = plan.plan.regions[g];
    same = a.name == b.name && a.length == b.length && a.record_count == b.record_count;
  }
  if (!same) {
    return Status::failed_precondition("traced plan differs from MhaPipeline::analyze for " +
                                       trace.file_name);
  }

  fault::MigrationJournal journal;
  core::ApplyOptions apply;
  apply.replicate_hot = options.replicate_hot;
  if (!options.journal_path.empty()) {
    MHA_RETURN_IF_ERROR(journal.open(options.journal_path));
    apply.journal = &journal;
  }
  {
    ScopedSpan span(&spans, "core.place");
    auto placement = core::Placer::apply(pfs, plan.plan, plan.stripe_pairs, apply);
    if (!placement.is_ok()) return placement.status();
    deployment.placement = std::move(placement).take();
  }
  for (const auto& [region, replica] : deployment.placement.replica_pairs) {
    MHA_RETURN_IF_ERROR(plan.plan.drt.set_replica(region, replica));
  }
  if (!options.drt_path.empty()) {
    ScopedSpan span(&spans, "kv.drt_save");
    kv::KvStore store;
    MHA_RETURN_IF_ERROR(store.open(options.drt_path));
    MHA_RETURN_IF_ERROR(plan.plan.drt.save(store));
    MHA_RETURN_IF_ERROR(store.sync());
    MHA_RETURN_IF_ERROR(store.close());
  }
  {
    ScopedSpan span(&spans, "core.redirector");
    auto redirector =
        core::Redirector::create(pfs, plan.plan.drt, options.redirect_lookup_overhead);
    if (!redirector.is_ok()) return redirector.status();
    deployment.redirector = std::make_unique<core::Redirector>(std::move(redirector).take());
  }
  if (journal.is_open()) {
    MHA_RETURN_IF_ERROR(journal.clear());
    MHA_RETURN_IF_ERROR(journal.close());
  }
  return deployment;
}

// ---------------------------------------------------------------- world ----

/// One trace on its own freshly built, populated PFS.
struct Case {
  trace::Trace trace;
  std::unique_ptr<pfs::HybridPfs> pfs;
  std::string drt_path;      ///< empty: the DRT is not persisted
  std::string journal_path;  ///< empty: placement is not journaled
};

/// The chaos guard (breakers, retry tokens, per-tier deadlines) with the
/// admission gate's backlog thresholds raised so that this load is never
/// shed: the benchmark counts every request that does not complete as
/// failed, and its workloads are chosen so that none fails.
guard::GuardOptions degraded_guard_options() {
  guard::GuardOptions options = guard::chaos_guard_options();
  options.shed_backlog = {0.25, 0.5, 1.0};
  return options;
}

/// The degraded workload's failure machinery, built during set-up.
struct DegradedWorld {
  DegradedWorld(std::uint64_t seed, const qos::JobTable& tenants, std::size_t num_servers)
      : jobs(tenants),
        injector(seed * 7919 + 17),
        fault_context(injector, {}, seed * 31 + 5),
        guard(num_servers, degraded_guard_options()),
        membership(num_servers) {
    rebuild_job = jobs.add("rebuild", 1.0, qos::PriorityClass::kBatch);
    scheduler = qos::make_qos_scheduler(qos::QosKind::kJobFair, jobs);
    // Two browned-out HServers, transient drops on two, and one HServer
    // crash window early in the run (writes park in the redo log, reads
    // degrade to an SServer); HServer kVictimServer is killed for good at
    // the middle barrier and rebuilt afterwards.
    for (std::size_t s : {std::size_t{1}, std::size_t{2}}) {
      fault::FaultWindow w;
      w.server = s;
      w.kind = fault::FaultKind::kBrownout;
      w.start = 0.02;
      w.end = 1e9;
      w.factor = 4.0;
      injector.add(w);
    }
    for (std::size_t s : {std::size_t{1}, std::size_t{4}}) {
      fault::FaultWindow w;
      w.server = s;
      w.kind = fault::FaultKind::kTransient;
      w.start = 0.02;
      w.end = 1e9;
      w.probability = 0.1;
      injector.add(w);
    }
    fault::FaultWindow crash;
    crash.server = kCrashedHserver;
    crash.kind = fault::FaultKind::kCrash;
    crash.start = 0.2;
    crash.end = 0.4;
    injector.add(crash);
  }
  // fault_context and the scheduler hold pointers into this object.
  DegradedWorld(const DegradedWorld&) = delete;
  DegradedWorld& operator=(const DegradedWorld&) = delete;

  qos::JobTable jobs;
  common::JobId rebuild_job = 0;
  std::unique_ptr<qos::FairShareScheduler> scheduler;
  fault::FaultInjector injector;
  fault::FaultContext fault_context;
  guard::OverloadGuard guard;
  repair::Membership membership;
};

sim::ClusterConfig paper_cluster() {
  sim::ClusterConfig cluster;  // the paper's 6 HServers + 2 SServers
  return cluster;
}

Status populate(Case& c, SpanRecorder* spans) {
  ScopedSpan span(spans, "layouts.populate");
  auto original = c.pfs->create_file(c.trace.file_name);
  if (!original.is_ok()) return original.status();
  return layouts::populate_file(*c.pfs, *original, trace::extent_end(c.trace.records));
}

/// Re-reads every traced range through the deployment and compares it with
/// a flat model: the populate pattern overwritten by every traced write, one
/// iteration after another.  Bytes that two writes of one iteration both
/// cover have no single expected value (their order inside the iteration is
/// the scheduler's), so they are skipped until a later write settles them.
Status check_final_content(pfs::HybridPfs& pfs, const layouts::Deployment& deployment,
                           const trace::Trace& trace) {
  const ByteCount extent = trace::extent_end(trace.records);
  std::vector<std::uint8_t> expected(extent);
  std::vector<std::uint8_t> ambiguous(extent, 0);
  layouts::populate_fill(0, expected.data(), extent);
  std::map<double, std::vector<const trace::TraceRecord*>> iterations;
  for (const trace::TraceRecord& r : trace.records) {
    if (r.op == common::OpType::kWrite) iterations[r.t_start].push_back(&r);
  }
  for (auto& [t, writes] : iterations) {
    for (const trace::TraceRecord* w : writes) {
      workloads::replay_write_fill(w->offset, expected.data() + w->offset, w->size);
      std::fill_n(ambiguous.begin() + static_cast<std::ptrdiff_t>(w->offset), w->size, 0);
    }
    std::sort(writes.begin(), writes.end(),
              [](const trace::TraceRecord* a, const trace::TraceRecord* b) {
                return a->offset < b->offset;
              });
    common::Offset covered_to = 0;
    for (const trace::TraceRecord* w : writes) {
      const common::Offset end = w->offset + w->size;
      if (w->offset < covered_to) {
        const common::Offset overlap_end = std::min(covered_to, end);
        std::fill(ambiguous.begin() + static_cast<std::ptrdiff_t>(w->offset),
                  ambiguous.begin() + static_cast<std::ptrdiff_t>(overlap_end), 1);
      }
      covered_to = std::max(covered_to, end);
    }
  }

  io::MpiSim mpi(1);
  auto handle = io::MpiFile::open(pfs, mpi, deployment.file_name);
  if (!handle.is_ok()) return handle.status();
  handle->set_interceptor(deployment.interceptor.get());
  std::vector<std::uint8_t> buffer;
  for (const trace::TraceRecord& r : trace.records) {
    buffer.resize(r.size);
    auto read = handle->read_at(0, r.offset, buffer.data(), r.size);
    if (!read.is_ok()) return read.status();
    if (std::memcmp(buffer.data(), expected.data() + r.offset, r.size) == 0) continue;
    for (ByteCount i = 0; i < r.size; ++i) {
      if (ambiguous[r.offset + i] == 0 && buffer[i] != expected[r.offset + i]) {
        return Status::corruption("final content differs at offset " +
                                  std::to_string(r.offset + i));
      }
    }
  }
  return Status::ok();
}

void add_server_stats(const pfs::HybridPfs& pfs, const workloads::ReplayResult& result,
                      SimDigest& sim) {
  for (std::size_t s = 0; s < result.server_stats.size(); ++s) {
    const sim::ServerStats& stats = result.server_stats[s];
    (pfs.is_hserver(s) ? sim.hserver_busy_s : sim.sserver_busy_s) += stats.busy_time;
    sim.queue_wait_s += stats.queue_wait;
    sim.subops += stats.sub_requests;
  }
  sim.makespan_s += result.makespan;
  sim.latency_p99_s = std::max(sim.latency_p99_s, result.latency_p99);
  sim.bytes += result.bytes_total();
  sim.requests += result.requests;
  sim.failed += result.failed_requests + result.shed_requests;
}

}  // namespace

bool parse_workload(std::string_view name, Workload& out) {
  if (name == "plan") {
    out = Workload::kPlan;
  } else if (name == "serve") {
    out = Workload::kServe;
  } else if (name == "writeback") {
    out = Workload::kWriteback;
  } else if (name == "degraded") {
    out = Workload::kDegraded;
  } else {
    return false;
  }
  return true;
}

common::Result<Repetition> run_repetition(Workload workload, std::uint64_t seed,
                                          const std::string& workdir, SpanRecorder* spans,
                                          bool check_content) {
  Repetition rep;
  const bool stores_data = workload != Workload::kPlan;
  const bool degraded = workload == Workload::kDegraded;

  // ---- set-up: cluster build + trace generation + populate_file ----------
  const Clock::time_point setup_start = Clock::now();
  std::vector<Case> cases;
  std::optional<qos::MultiTenantDriver> tenants;
  {
    ScopedSpan span(spans, "workloads.generate");
    std::vector<trace::Trace> traces;
    switch (workload) {
      case Workload::kPlan:
        traces = plan_traces(seed);
        break;
      case Workload::kServe:
        traces.push_back(serve_trace(seed));
        break;
      case Workload::kWriteback:
        traces.push_back(writeback_trace(seed));
        break;
      case Workload::kDegraded:
        tenants.emplace(degraded_tenants());
        traces.push_back(tenants->combined_trace());
        break;
    }
    for (trace::Trace& t : traces) cases.push_back(Case{std::move(t), nullptr, {}, {}});
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Case& c = cases[i];
    pfs::PfsOptions pfs_options;
    pfs_options.store_data = stores_data;
    c.pfs = std::make_unique<pfs::HybridPfs>(paper_cluster(), pfs_options);
    if (stores_data) {
      c.drt_path = workdir + "/drt" + std::to_string(i) + ".kv";
      std::remove(c.drt_path.c_str());
    }
    if (degraded) {
      c.journal_path = workdir + "/placement.journal";
      std::remove(c.journal_path.c_str());
    }
    MHA_RETURN_IF_ERROR(populate(c, spans));
  }
  std::optional<DegradedWorld> chaos;
  cache::CacheConfig cache_config;
  cache_config.page_size = kCachePage;
  cache_config.num_pages = kCachePages;
  cache_config.mode = cache::ConsistencyMode::kWriteBack;
  if (degraded) {
    chaos.emplace(seed, tenants->jobs(), cases[0].pfs->num_servers());
  }
  rep.setup_s = seconds_since(setup_start);

  // ---- plan: MhaPipeline::deploy per trace --------------------------------
  std::vector<core::MhaDeployment> deployments;
  const Clock::time_point plan_start = Clock::now();
  for (Case& c : cases) {
    core::MhaOptions options;
    options.drt_path = c.drt_path;
    options.journal_path = c.journal_path;
    options.replicate_hot = degraded;
    auto deployed = spans != nullptr
                        ? staged_deploy(*c.pfs, c.trace, options, *spans, rep.counts)
                        : core::MhaPipeline::deploy(*c.pfs, c.trace, options);
    if (!deployed.is_ok()) return deployed.status();
    deployments.push_back(std::move(deployed).take());
  }
  rep.plan_s = seconds_since(plan_start);

  // ---- replay ------------------------------------------------------------
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Case& c = cases[i];
    pfs::HybridPfs& pfs = *c.pfs;
    core::MhaDeployment& deployed = deployments[i];
    rep.sim.plan_hash = plan_hash(rep.sim.plan_hash ^ i, deployed.plan);
    rep.counts.groups += deployed.plan.grouping.num_groups;
    rep.counts.grouping_iterations += static_cast<std::uint64_t>(deployed.plan.grouping.iterations_run);
    rep.counts.drt_entries += deployed.plan.plan.drt.size();
    rep.counts.replicas += deployed.placement.replicas_created;
    rep.counts.placed_bytes +=
        deployed.placement.bytes_migrated + deployed.placement.bytes_replicated;

    layouts::Deployment deployment;
    deployment.file_name = c.trace.file_name;
    core::Redirector* redirector = deployed.redirector.get();
    if (spans != nullptr) {
      deployment.interceptor = std::make_unique<TimedInterceptor>(
          std::move(deployed.redirector), *spans, rep.counts);
    } else {
      deployment.interceptor = std::move(deployed.redirector);
    }

    workloads::ReplayOptions options;
    options.verify_data = stores_data;
    cache::CacheMetrics cache_metrics;
    if (workload == Workload::kWriteback) {
      options.cache = &cache_config;
      options.cache_metrics = &cache_metrics;
    }
    std::optional<repair::Rebuilder> rebuilder;
    if (degraded) {
      pfs.set_membership(&chaos->membership);
      options.jobs = &chaos->jobs;
      options.scheduler = chaos->scheduler.get();
      options.guard = &chaos->guard;
      options.fault_context = &chaos->fault_context;
      options.goodput_allowance = guard::chaos_allowances();
      options.tolerate_failures = true;
      repair::RebuildOptions rebuild;
      rebuild.chunk = 256 * kKiB;
      rebuild.rate = 64.0 * static_cast<double>(kMiB);
      rebuild.job = chaos->rebuild_job;
      const std::string journal = workdir + "/rebuild.journal";
      std::remove(journal.c_str());
      rebuilder.emplace(pfs, *redirector, chaos->membership, journal, rebuild);
    }

    // Iteration clock: barrier-to-barrier host time; in traced runs each
    // iteration is also a span, and rebuild work done at a barrier is its
    // own span between two iterations.
    const std::size_t iterations = count_iterations(c.trace);
    const std::size_t kill_barrier = iterations / 2;
    std::size_t barriers = 0;
    Status repair_status = Status::ok();
    Clock::time_point last_barrier{};
    std::int32_t iteration_span = -1;
    options.on_barrier = [&](Seconds now) {
      const Clock::time_point t = Clock::now();
      if (barriers > 0) {
        rep.iteration_s.push_back(std::chrono::duration<double>(t - last_barrier).count());
      }
      last_barrier = t;
      ++barriers;
      if (spans != nullptr) spans->end(iteration_span);
      if (rebuilder.has_value() && repair_status.is_ok()) {
        if (barriers == kill_barrier) {
          ScopedSpan span(spans, "repair.rebuild_plan");
          repair::kill_server(chaos->membership, pfs, kVictimServer, now, &chaos->injector);
          repair_status = rebuilder->plan(now);
        } else if (rebuilder->planned() && !rebuilder->done()) {
          ScopedSpan span(spans, "repair.rebuild_step");
          repair_status = rebuilder->step(now);
        }
      }
      if (spans != nullptr && barriers < iterations) {
        iteration_span = spans->begin("replay.iteration");
      }
    };

    // Timing-only replays leave no state behind, so untraced plan
    // repetitions replay each trace several times: its replays are short, and
    // one pass is too little work to time steadily.  Every pass must give the
    // same answer.  Traced repetitions make one pass, so their counts are
    // per pass.
    const int passes = stores_data || spans != nullptr ? 1 : kTimingOnlyPasses;
    std::optional<workloads::ReplayResult> first;
    SimDigest first_sim;
    for (int pass = 0; pass < passes; ++pass) {
      pfs.reset_stats();
      pfs.reset_clocks();
      barriers = 0;
      if (spans != nullptr) spans->reserve(spans->spans().size() + 4 * c.trace.size() + 64);
      const common::AllocationScope allocations;
      const Clock::time_point replay_start = Clock::now();
      common::Result<workloads::ReplayResult> result = [&] {
        ScopedSpan span(spans, "workloads.replay");
        if (spans != nullptr) iteration_span = spans->begin("replay.iteration");
        return workloads::replay(pfs, deployment, c.trace, options);
      }();
      rep.replay_s += seconds_since(replay_start);
      rep.counts.replay_allocations += allocations.allocations();
      if (!result.is_ok()) return result.status();
      MHA_RETURN_IF_ERROR(repair_status);
      if (barriers != iterations) {
        return Status::failed_precondition("replay ran " + std::to_string(barriers) + " of " +
                                           std::to_string(iterations) + " iterations");
      }
      SimDigest sim;
      add_server_stats(pfs, *result, sim);
      rep.replayed_requests += sim.requests;
      rep.replayed_bytes += sim.bytes;
      if (pass == 0) {
        first = std::move(result).take();
        first_sim = sim;
      } else if (!(sim == first_sim)) {
        return Status::failed_precondition("timing-only replay pass " + std::to_string(pass) +
                                           " of " + c.trace.file_name + " differs");
      }
    }
    const workloads::ReplayResult* result = &*first;

    add_server_stats(pfs, *result, rep.sim);
    rep.counts.sched_requests += result->scheduler_metrics.requests;
    rep.counts.sched_reorders += result->scheduler_metrics.reorders;
    rep.counts.sched_deferrals += result->scheduler_metrics.deferrals;
    rep.counts.cache = cache_metrics;
    rep.counts.failover = pfs.failover_stats();
    if (degraded) {
      rep.counts.guard = chaos->guard.metrics();
      rep.counts.fault = chaos->injector.metrics();
      if (!rebuilder->planned()) return Status::failed_precondition("rebuild never planned");
      MHA_RETURN_IF_ERROR(rebuilder->run_to_completion(result->makespan));
      rep.counts.rebuild = rebuilder->report();
      if (rep.counts.rebuild.lost_regions != 0) {
        return Status::failed_precondition("rebuild lost regions");
      }
    }
    // The final image is only determined when every write landed (a shed
    // write leaves its range at the older bytes).
    if (check_content && stores_data &&
        result->failed_requests + result->shed_requests == 0) {
      MHA_RETURN_IF_ERROR(check_final_content(pfs, deployment, c.trace));
      rep.content_checked = true;
    }
  }
  return rep;
}

common::Result<KernelTimes> time_content_kernels(std::uint64_t seed, SpanRecorder& spans) {
  constexpr ByteCount kChunk = pfs::ExtentStore::kChecksumChunk;
  constexpr ByteCount kStoreBytes = 16 * kMiB;
  constexpr ByteCount kOpBytes = 4 * kKiB;
  constexpr int kCrcPasses = 16;
  constexpr int kOps = 4096;

  common::Rng rng(seed * 0x94D049BB133111EBULL + 7);
  std::vector<std::uint8_t> data(kStoreBytes);
  for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  KernelTimes times;

  {
    const Clock::time_point start = Clock::now();
    ScopedSpan span(&spans, "common.crc32");
    for (int pass = 0; pass < kCrcPasses; ++pass) {
      for (ByteCount off = 0; off < kStoreBytes; off += kChunk) {
        common::crc32(data.data() + off, kChunk);
      }
    }
    const double mib = static_cast<double>(kCrcPasses * kStoreBytes) / static_cast<double>(kMiB);
    times.crc32_mib_per_s = mib / seconds_since(start);
  }

  pfs::ExtentStore store;
  store.write(0, data.data(), kStoreBytes);
  std::vector<common::Offset> offsets(kOps);
  for (common::Offset& off : offsets) {
    off = rng.next_below(kStoreBytes / kOpBytes) * kOpBytes;
  }
  {
    const Clock::time_point start = Clock::now();
    ScopedSpan span(&spans, "pfs.extent_write");
    for (int i = 0; i < kOps; ++i) {
      store.write(offsets[static_cast<std::size_t>(i)],
                  data.data() + static_cast<std::size_t>(i) * kOpBytes, kOpBytes);
    }
    times.write_4k_us = seconds_since(start) * 1e6 / kOps;
  }
  std::vector<std::uint8_t> out(kOpBytes);
  {
    const Clock::time_point start = Clock::now();
    ScopedSpan span(&spans, "pfs.extent_verified_read");
    for (const common::Offset off : offsets) {
      MHA_RETURN_IF_ERROR(store.verified_read(off, out.data(), kOpBytes));
    }
    times.verified_read_4k_us = seconds_since(start) * 1e6 / kOps;
  }
  return times;
}

std::string describe(Workload workload, std::uint64_t seed) {
  char line[512];
  switch (workload) {
    case Workload::kPlan: {
      std::string out = "plan: MHA deploy + timing-only replay of";
      for (const trace::Trace& t : plan_traces(seed)) {
        out += " " + t.file_name + "(" + std::to_string(t.size()) + " req, " +
               std::to_string(rank_count(t)) + " ranks, " +
               std::to_string(count_iterations(t)) + " iterations)";
      }
      return out;
    }
    case Workload::kServe: {
      const trace::Trace t = serve_trace(seed);
      std::snprintf(line, sizeof(line),
                    "serve: %zu req, %d ranks, %zu iterations (read,read,write), 4-64 KiB "
                    "random offsets over %llu MiB, byte-verified, uncached",
                    t.size(), kServeRanks, count_iterations(t),
                    static_cast<unsigned long long>(kServeFileSize / kMiB));
      return line;
    }
    case Workload::kWriteback: {
      const trace::Trace t = writeback_trace(seed);
      std::snprintf(line, sizeof(line),
                    "writeback: %zu req, %d ranks, %zu iterations, write set %llu MiB, "
                    "read-back set %llu MiB, write-back pool %llu MiB (%zu x %llu KiB pages)",
                    t.size(), kWritebackProcs, count_iterations(t),
                    static_cast<unsigned long long>(kWritebackProcs * kWritebackLoops *
                                                    kLanlLoopBytes / kMiB),
                    static_cast<unsigned long long>(kWritebackProcs * kReadBackLoops *
                                                    kLanlLoopBytes / kMiB),
                    static_cast<unsigned long long>(kCachePages * kCachePage / kMiB),
                    kCachePages, static_cast<unsigned long long>(kCachePage / kKiB));
      return line;
    }
    case Workload::kDegraded: {
      const qos::MultiTenantDriver driver(degraded_tenants());
      std::snprintf(line, sizeof(line),
                    "degraded: %zu req, %d ranks in %zu tenants, %zu iterations, job-fair + "
                    "guard + faults, HServer %zu killed at the middle barrier, journaled "
                    "rebuild",
                    driver.combined_trace().size(), driver.total_clients(),
                    driver.jobs().size(), count_iterations(driver.combined_trace()),
                    kVictimServer);
      return line;
    }
  }
  return {};
}

}  // namespace perfbench
