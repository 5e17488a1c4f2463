#include "workloads/replayer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <queue>

#include "common/crc32.hpp"
#include "io/mpi_file.hpp"
#include "io/tracer.hpp"
#include "trace/analysis.hpp"

namespace mha::workloads {

namespace {

int world_size_of(const trace::Trace& trace) {
  int max_rank = 0;
  for (const trace::TraceRecord& r : trace.records) max_rank = std::max(max_rank, r.rank);
  return max_rank + 1;
}

/// Shadow flat file for byte-level verification.
class Shadow {
 public:
  Shadow(bool enabled, common::ByteCount extent, const io::IoInterceptor* interceptor)
      : enabled_(enabled), interceptor_(interceptor) {
    if (!enabled_) return;
    std::vector<std::uint8_t> seed(extent);
    layouts::populate_fill(0, seed.data(), extent);
    store_.write(0, seed);
  }

  void on_write(common::Offset offset, const std::uint8_t* data, common::ByteCount size) {
    if (enabled_) store_.write(offset, data, size);
  }

  common::Status check_read(common::Offset offset, const std::uint8_t* actual,
                            common::ByteCount size) {
    if (!enabled_) return common::Status::ok();
    if (expected_.size() < size) expected_.resize(size);
    store_.read(offset, expected_.data(), size);
    if (std::memcmp(actual, expected_.data(), size) == 0) return common::Status::ok();
    // Bulk compare failed.  The report names everything a debugger wants:
    // the whole-request CRCs (expected vs. actual), the first divergent
    // origin offset, and — when the run was redirected — which region file
    // actually served that byte (via the interceptor's locate()).
    const std::uint8_t* bad = std::mismatch(actual, actual + size, expected_.data()).first;
    const common::Offset at = offset + static_cast<common::ByteCount>(bad - actual);
    char crcs[64];
    std::snprintf(crcs, sizeof(crcs), "expected crc %08x, actual crc %08x",
                  common::crc32(expected_.data(), size), common::crc32(actual, size));
    const std::string where =
        interceptor_ != nullptr ? interceptor_->locate(at) : std::string();
    return common::Status::corruption(
        "replay verification failed over [" + std::to_string(offset) + ", " +
        std::to_string(offset + size) + "): " + crcs + "; first mismatch at origin offset " +
        std::to_string(at) + (where.empty() ? "" : " (served from " + where + ")"));
  }

 private:
  bool enabled_;
  const io::IoInterceptor* interceptor_;
  pfs::ExtentStore store_;
  /// Reused expected-bytes scratch (zero steady-state allocations).
  std::vector<std::uint8_t> expected_;
};

/// Attaches the options' scheduler to the PFS for the replay window and
/// detaches it on every exit path.
class SchedulerGuard {
 public:
  SchedulerGuard(pfs::HybridPfs& pfs, sched::Scheduler* scheduler) : pfs_(pfs) {
    if (scheduler != nullptr) pfs_.set_scheduler(scheduler);
  }
  ~SchedulerGuard() { pfs_.set_scheduler(nullptr); }

 private:
  pfs::HybridPfs& pfs_;
};

/// Same idiom for the fault context.
class FaultGuard {
 public:
  FaultGuard(pfs::HybridPfs& pfs, fault::FaultContext* fault) : pfs_(pfs) {
    if (fault != nullptr) pfs_.set_fault_context(fault);
  }
  ~FaultGuard() { pfs_.set_fault_context(nullptr); }

 private:
  pfs::HybridPfs& pfs_;
};

/// Same idiom for the overload guard.
class OverloadGuardGuard {
 public:
  OverloadGuardGuard(pfs::HybridPfs& pfs, guard::OverloadGuard* g) : pfs_(pfs) {
    if (g != nullptr) pfs_.set_guard(g);
  }
  ~OverloadGuardGuard() { pfs_.set_guard(nullptr); }

 private:
  pfs::HybridPfs& pfs_;
};

}  // namespace

common::Result<ReplayResult> replay(pfs::HybridPfs& pfs,
                                    const layouts::Deployment& deployment,
                                    const trace::Trace& trace,
                                    const ReplayOptions& options) {
  if (trace.records.empty()) return common::Status::invalid_argument("replay: empty trace");
  const int world = world_size_of(trace);
  SchedulerGuard scheduler_guard(pfs, options.scheduler);
  FaultGuard fault_guard(pfs, options.fault_context);
  OverloadGuardGuard overload_guard(pfs, options.guard);
  if (options.guard != nullptr && options.jobs != nullptr) {
    // Seed the guard's job -> tier map from the registry's priority classes
    // so tiered shedding sees the same classes the fair-share policies do.
    for (std::size_t j = 0; j < options.jobs->size(); ++j) {
      options.guard->set_job_tier(
          static_cast<common::JobId>(j),
          static_cast<std::uint8_t>(options.jobs->priority(static_cast<common::JobId>(j))));
    }
  }
  if (options.scheduler != nullptr) {
    options.scheduler->reserve_metrics(trace.records.size(), pfs.num_servers());
  }
  io::MpiSim mpi(world);
  auto file = io::MpiFile::open(pfs, mpi, deployment.file_name);
  if (!file.is_ok()) return file.status();
  if (deployment.interceptor != nullptr) file->set_interceptor(deployment.interceptor.get());

  io::Tracer tracer(deployment.file_name, options.tracer_overhead);
  if (options.trace_run) file->set_tracer(&tracer);

  // Cached replays route every record through the page cache, one at a
  // time; the collective batched path is disabled because the cache issues
  // its own bulk dispatches (fills, prefetches, coalesced flushes).
  std::optional<cache::CachedFile> cached;
  if (options.cache != nullptr) cached.emplace(*file, mpi, pfs, *options.cache);

  Shadow shadow(options.verify_data, trace::extent_end(trace.records),
                deployment.interceptor.get());
  const bool fill_payload =
      options.verify_data || (pfs.num_servers() > 0 && pfs.data_server(0).stores_data());

  ReplayResult result;
  common::Percentiles latency_pcts;
  latency_pcts.reserve(trace.records.size());

  if (options.jobs != nullptr) {
    // Pre-count each tenant's requests so the per-tenant percentile stores
    // never grow on the request path (same zero-alloc contract as the
    // aggregate collector above).
    result.tenants.resize(std::max<std::size_t>(options.jobs->size(), 1));
    std::vector<std::size_t> per_job(result.tenants.size(), 0);
    for (const trace::TraceRecord& r : trace.records) {
      ++per_job[options.jobs->job_of_rank(r.rank)];
    }
    for (std::size_t j = 0; j < per_job.size(); ++j) {
      result.tenants[j].percentiles.reserve(per_job[j]);
    }
  }

  // Every record carries its issuing rank's job and, under a guard, an
  // end-to-end deadline: the rank's clock at issue (not the trace's nominal
  // t_start) plus its tier's allowance.
  const auto job_of = [&](const trace::TraceRecord& r) {
    return options.jobs != nullptr ? options.jobs->job_of_rank(r.rank)
                                   : common::kDefaultJob;
  };
  const auto allowance_of = [&](common::JobId job) {
    const auto tier = options.jobs != nullptr
                          ? static_cast<std::size_t>(options.jobs->priority(job))
                          : static_cast<std::size_t>(qos::PriorityClass::kNormal);
    return options.goodput_allowance[tier];
  };
  const auto deadline_of = [&](const trace::TraceRecord& r, common::JobId job) {
    return options.guard != nullptr ? mpi.now(r.rank) + allowance_of(job)
                                    : std::numeric_limits<double>::infinity();
  };

  // Per-record accounting, shared by every issue path.  `bytes` is the
  // record's payload (writes) or destination (reads).  A tolerated failure
  // is counted and swallowed; corruption always aborts.
  const auto account = [&](const trace::TraceRecord& r, const common::Status& status,
                           const std::uint8_t* bytes,
                           common::Seconds duration) -> common::Status {
    const common::JobId job = job_of(r);
    ++result.requests;
    if (!status.is_ok()) {
      if (!options.tolerate_failures || status.code() == common::ErrorCode::kCorruption) {
        return status;
      }
      if (status.code() == common::ErrorCode::kOverloaded) {
        ++result.shed_requests;
        if (!result.tenants.empty()) ++result.tenants[job].shed;
      } else {
        ++result.failed_requests;
        if (!result.tenants.empty()) ++result.tenants[job].failed;
      }
      return common::Status::ok();
    }
    if (r.op == common::OpType::kWrite) {
      shadow.on_write(r.offset, bytes, r.size);
      result.bytes_written += r.size;
    } else {
      MHA_RETURN_IF_ERROR(shadow.check_read(r.offset, bytes, r.size));
      result.bytes_read += r.size;
    }
    result.request_latency.add(duration);
    latency_pcts.add(duration);
    if (!result.tenants.empty()) result.tenants[job].observe(duration, r.size);
    if (duration <= allowance_of(job)) {
      result.goodput_bytes += r.size;
      if (!result.tenants.empty()) result.tenants[job].goodput_bytes += r.size;
    } else {
      ++result.late_requests;
      if (!result.tenants.empty()) ++result.tenants[job].late;
    }
    return common::Status::ok();
  };

  // Payload arena: one slice per record of the current run (or the one
  // cached record), grown to the largest run and then reused.
  std::vector<std::uint8_t> arena;
  const auto slice_payload = [&](const trace::TraceRecord& r, common::ByteCount at) {
    std::uint8_t* slice = arena.data() + at;
    if (r.op == common::OpType::kWrite && fill_payload) {
      replay_write_fill(r.offset, slice, r.size);
    }
    return slice;
  };

  // A cached record goes to the page cache on its own.
  const auto issue_cached = [&](const trace::TraceRecord& r) -> common::Status {
    if (arena.size() < r.size) arena.resize(r.size);
    std::uint8_t* slice = slice_payload(r, 0);
    const common::JobId job = job_of(r);
    const common::Seconds deadline = deadline_of(r, job);
    auto op = r.op == common::OpType::kWrite
                  ? cached->write_at(r.rank, r.offset, slice, r.size, job, deadline)
                  : cached->read_at(r.rank, r.offset, slice, r.size, job, deadline);
    return account(r, op.status(), slice, op.is_ok() ? op->duration() : 0.0);
  };

  // Uncached records go out as runs: same-op records on distinct ranks, in
  // plan order, issued through one collective call.  A lone record, every
  // record with batching off, and every record in independent mode is a
  // run of one.
  std::vector<const trace::TraceRecord*> run;
  std::vector<std::uint8_t> rank_used(static_cast<std::size_t>(world), 0);
  std::vector<io::BatchOp> batch_ops;
  io::BatchOutcomeVec batch_outcomes;

  auto flush_run = [&]() -> common::Status {
    if (run.empty()) return common::Status::ok();
    const common::OpType op = run[0]->op;
    common::ByteCount total = 0;
    for (const trace::TraceRecord* r : run) total += r->size;
    if (arena.size() < total) arena.resize(total);
    batch_ops.clear();
    common::ByteCount off = 0;
    for (const trace::TraceRecord* r : run) {
      std::uint8_t* slice = slice_payload(*r, off);
      const common::JobId job = job_of(*r);
      batch_ops.push_back(io::BatchOp{
          r->rank, r->offset, r->size, op == common::OpType::kRead ? slice : nullptr,
          op == common::OpType::kWrite ? slice : nullptr, job, deadline_of(*r, job)});
      off += r->size;
    }
    const std::span<const io::BatchOp> ops(batch_ops.data(), batch_ops.size());
    if (op == common::OpType::kRead) {
      file->read_at_batch(ops, batch_outcomes);
    } else {
      file->write_at_batch(ops, batch_outcomes);
    }
    common::Status failure = common::Status::ok();
    off = 0;
    for (std::size_t i = 0; i < run.size() && failure.is_ok(); ++i) {
      const io::BatchOpOutcome& oc = batch_outcomes[i];
      failure = account(*run[i], oc.status, arena.data() + off, oc.op.duration());
      off += run[i]->size;
    }
    for (const trace::TraceRecord* r : run) {
      rank_used[static_cast<std::size_t>(r->rank)] = 0;
    }
    run.clear();
    return failure;
  };

  // Issues one record: through the cache, or by appending it to the run.
  // A run breaks on an op-type change or a rank repeat (the second request
  // of one rank must see its first one's completion — the closed-loop
  // contract), and after every record when `batch` is off.
  const auto submit = [&](const trace::TraceRecord& r, bool batch) -> common::Status {
    if (cached.has_value()) return issue_cached(r);
    if (!run.empty() &&
        (r.op != run[0]->op || rank_used[static_cast<std::size_t>(r.rank)] != 0)) {
      MHA_RETURN_IF_ERROR(flush_run());
    }
    run.push_back(&r);
    rank_used[static_cast<std::size_t>(r.rank)] = 1;
    return batch ? common::Status::ok() : flush_run();
  };

  if (options.mode == ReplayMode::kSynchronous) {
    // Iterations are groups of records sharing a t_start; a barrier closes
    // each iteration, so arrivals inside one iteration are simultaneous —
    // exactly the congestion window the scheduler's plan() may reorder.
    std::map<common::Seconds, std::vector<const trace::TraceRecord*>> iterations;
    for (const trace::TraceRecord& r : trace.records) {
      iterations[r.t_start].push_back(&r);
    }
    for (const auto& [t, group] : iterations) {
      std::vector<std::size_t> order(group.size());
      for (std::size_t i = 0; i < group.size(); ++i) order[i] = i;
      if (options.scheduler != nullptr) {
        std::vector<common::Request> batch;
        batch.reserve(group.size());
        for (const trace::TraceRecord* r : group) {
          const common::JobId job = job_of(*r);
          batch.push_back(common::Request{r->rank, r->op, r->offset, r->size, r->t_start,
                                          job, r->t_start + allowance_of(job)});
        }
        order = options.scheduler->plan(batch);
      }
      for (std::size_t i : order) {
        MHA_RETURN_IF_ERROR(submit(*group[i], options.batch_requests));
      }
      MHA_RETURN_IF_ERROR(flush_run());
      mpi.barrier();
      if (cached.has_value()) {
        // Close-to-open epoch boundary: flush + invalidate at the barrier
        // (no-op in the other consistency modes).
        auto epoch = cached->epoch_close();
        if (!epoch.is_ok()) return epoch.status();
      }
      if (options.on_barrier) options.on_barrier(mpi.max_time());
    }
  } else {
    // Discrete-event free-running replay: per-rank cursors, always dispatch
    // the rank whose clock is earliest so server queues see time order.
    std::vector<std::vector<const trace::TraceRecord*>> per_rank(
        static_cast<std::size_t>(world));
    for (const trace::TraceRecord& r : trace.records) {
      per_rank[static_cast<std::size_t>(r.rank)].push_back(&r);
    }
    using Entry = std::pair<common::Seconds, int>;  // (clock, rank)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::vector<std::size_t> cursor(static_cast<std::size_t>(world), 0);
    for (int rank = 0; rank < world; ++rank) {
      if (!per_rank[static_cast<std::size_t>(rank)].empty()) heap.emplace(0.0, rank);
    }
    while (!heap.empty()) {
      const auto [t, rank] = heap.top();
      heap.pop();
      auto& queue = per_rank[static_cast<std::size_t>(rank)];
      auto& pos = cursor[static_cast<std::size_t>(rank)];
      MHA_RETURN_IF_ERROR(submit(*queue[pos], /*batch=*/false));
      if (++pos < queue.size()) heap.emplace(mpi.now(rank), rank);
    }
  }

  result.makespan = mpi.max_time();
  if (cached.has_value()) {
    // Tail flush: whatever is still dirty leaves as coalesced bulk runs at
    // the replay's end; its completion extends the measured window (the
    // absorbed writes were never free, just deferred).
    auto tail = cached->flush_all(mpi.max_time());
    if (!tail.is_ok()) return tail.status();
    result.makespan = std::max(result.makespan, *tail);
    if (options.cache_metrics != nullptr) *options.cache_metrics = cached->metrics();
  }
  result.aggregate_bandwidth =
      result.makespan > 0.0 ? static_cast<double>(result.bytes_total()) / result.makespan : 0.0;
  result.goodput_bandwidth =
      result.makespan > 0.0 ? static_cast<double>(result.goodput_bytes) / result.makespan : 0.0;
  result.latency_p50 = latency_pcts.percentile(50);
  result.latency_p99 = latency_pcts.percentile(99);
  result.server_stats.reserve(pfs.num_servers());
  for (std::size_t i = 0; i < pfs.num_servers(); ++i) {
    result.server_stats.push_back(pfs.server_stats(i));
  }
  if (options.trace_run) result.captured = tracer.take_trace();
  if (options.scheduler != nullptr) result.scheduler_metrics = options.scheduler->metrics();
  return result;
}

common::Result<ReplayResult> run_scheme(layouts::LayoutScheme& scheme,
                                        const sim::ClusterConfig& config,
                                        const trace::Trace& trace,
                                        const ReplayOptions& options, bool store_data) {
  pfs::PfsOptions pfs_options;
  pfs_options.store_data = store_data || options.verify_data;
  pfs::HybridPfs pfs(config, pfs_options);
  auto deployment = scheme.prepare(pfs, trace);
  if (!deployment.is_ok()) return deployment.status();
  return replay(pfs, *deployment, trace, options);
}

}  // namespace mha::workloads
