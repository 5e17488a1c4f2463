// Trace replay against a prepared layout scheme — the measurement harness
// behind every figure.
//
// Replay is closed-loop per rank ("It uses synchronous reads/writes"): a
// rank issues its next request the moment its previous one completes.  Two
// coordination modes:
//   kIndependent  - ranks free-run; a discrete-event loop always dispatches
//                   the globally earliest pending request so server FCFS
//                   queues see arrivals in true time order.
//   kSynchronous  - a barrier after every iteration (all records sharing a
//                   t_start), the collective phase structure of IOR/BTIO.
//
// Bandwidth is bytes moved divided by the virtual makespan, the aggregate
// the paper plots.  Optional byte-level verification replays against a
// shadow flat file and fails on any mismatch — the end-to-end data-integrity
// oracle for redirection.
#pragma once

#include <array>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "cache/page_cache.hpp"
#include "common/result.hpp"
#include "common/stats.hpp"
#include "guard/guard.hpp"
#include "layouts/scheme.hpp"
#include "pfs/file_system.hpp"
#include "qos/job.hpp"
#include "qos/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sim/server_sim.hpp"
#include "trace/record.hpp"

namespace mha::workloads {

enum class ReplayMode { kIndependent, kSynchronous };

struct ReplayOptions {
  ReplayMode mode = ReplayMode::kSynchronous;
  /// Byte-level verification against a shadow copy (needs a data-storing
  /// PFS; costs memory proportional to the trace's extent).
  bool verify_data = false;
  /// Attach a tracing collector with this per-op overhead (profiling runs).
  bool trace_run = false;
  common::Seconds tracer_overhead = 0.0;
  /// Client-side I/O scheduler to dispatch through (borrowed; null keeps
  /// the direct FCFS path).  In synchronous mode each iteration's requests
  /// are additionally ordered by the scheduler's plan() — the congestion
  /// window — so any scheme x scheduler combination is replayable.
  sched::Scheduler* scheduler = nullptr;
  /// Fault context to replay under (borrowed; null replays fault-free).
  /// While attached the PFS runs its degraded-mode dispatch path: injected
  /// crashes/brownouts/transients hit this replay's requests and every
  /// retry/degraded-read/redo decision lands in the context's FaultMetrics.
  fault::FaultContext* fault_context = nullptr;
  /// Tenant registry (borrowed; null replays single-tenant).  When attached,
  /// every request carries its issuing rank's job — so per-job rows
  /// accumulate in the ServerSims and fair-share schedulers see real job
  /// identities — and the result carries per-tenant latency collectors
  /// alongside the aggregate ones.
  const qos::JobTable* jobs = nullptr;
  /// Overload guard to dispatch under (borrowed; null replays unguarded).
  /// While attached, the PFS consults its admission gate/breakers/retry
  /// tokens, each request carries issue + its tier's goodput_allowance as
  /// its end-to-end deadline, and job -> tier mappings are seeded from the
  /// job table's priority classes.
  guard::OverloadGuard* guard = nullptr;
  /// Per-priority-tier completion allowance in seconds from issue (index =
  /// qos::PriorityClass value: batch, normal, interactive).  A request
  /// finishing later is *late*: its bytes count as throughput but not
  /// goodput.  Infinite entries (the default) disable the accounting.
  std::array<common::Seconds, 3> goodput_allowance = {
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity()};
  /// Keep replaying through per-request failures: shed (kOverloaded) and
  /// failed (deadline/budget/unavailable) requests are counted instead of
  /// aborting the replay.  Data corruption still aborts — a wrong byte is
  /// never an overload symptom.
  bool tolerate_failures = false;
  /// Synchronous mode only: issue each iteration's plan-ordered records in
  /// maximal same-op runs over distinct ranks, one collective call
  /// (MpiFile::read_at_batch / write_at_batch) per run — translated under a
  /// shared DRT cursor and dispatched once per server at the PFS.  When
  /// false every record is a run of one through the same code, the
  /// reference the batched-vs-serial equivalence suite pins stored bytes,
  /// per-job server stats and Statuses against.  Independent mode always
  /// issues runs of one.  Either way each record carries its own job and
  /// deadline in the request.
  bool batch_requests = true;
  /// Client-side page cache to replay through (borrowed; null replays
  /// uncached).  All requests route through a cache::CachedFile wrapped
  /// around the replay's MpiFile: hits and absorbed writes cost the cache's
  /// hit_overhead instead of the full translate+dispatch round trip, dirty
  /// pages flush as coalesced bulk runs (attributed to the dirtying job),
  /// and a final sync flush closes the replay — its completion extends the
  /// makespan.  Close-to-open mode flushes + invalidates at every
  /// synchronous barrier.  Caching disables the collective batched path
  /// (the cache issues its own bulk dispatches instead).
  const cache::CacheConfig* cache = nullptr;
  /// When caching, the cache's counters are copied here at replay end
  /// (borrowed; may be null).
  cache::CacheMetrics* cache_metrics = nullptr;
  /// Synchronous mode only: invoked after every iteration barrier (and the
  /// close-to-open epoch flush, when caching) with the synced virtual time.
  /// The world is quiescent at that instant — no request is in flight — so
  /// the hook may mutate it: the repair bench kills a server here and pumps
  /// the rebuilder between iterations.
  std::function<void(common::Seconds)> on_barrier;
};

struct ReplayResult {
  common::Seconds makespan = 0.0;
  common::ByteCount bytes_read = 0;
  common::ByteCount bytes_written = 0;
  std::size_t requests = 0;
  /// bytes_total / makespan.
  double aggregate_bandwidth = 0.0;
  /// Per-server stats snapshot over the replay window.
  std::vector<sim::ServerStats> server_stats;
  /// Captured trace when options.trace_run was set.
  trace::Trace captured;
  /// Per-request latency over the replay (every rank's op duration).
  common::OnlineStats request_latency;
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  /// Snapshot of the scheduler's decision counters when one was attached.
  sched::SchedulerMetrics scheduler_metrics;
  /// Per-tenant latency/byte collectors, indexed by JobId; filled only when
  /// options.jobs was attached (size == jobs->size()).
  std::vector<qos::TenantLatency> tenants;
  /// Goodput: bytes of requests that completed within their tier's
  /// allowance (== bytes_total when no allowance was configured).
  common::ByteCount goodput_bytes = 0;
  /// goodput_bytes / makespan.
  double goodput_bandwidth = 0.0;
  /// Requests the admission gate / retry-token budget shed (kOverloaded).
  std::size_t shed_requests = 0;
  /// Requests that failed for any other tolerated reason (deadline miss,
  /// retry budget, offline past budget).
  std::size_t failed_requests = 0;
  /// Requests that completed but blew their tier's allowance.
  std::size_t late_requests = 0;

  common::ByteCount bytes_total() const { return bytes_read + bytes_written; }
};

/// Replays `trace` through `deployment` on `pfs`.  The PFS must have been
/// prepared by the deployment's scheme (stats clean).
common::Result<ReplayResult> replay(pfs::HybridPfs& pfs,
                                    const layouts::Deployment& deployment,
                                    const trace::Trace& trace,
                                    const ReplayOptions& options = {});

/// Convenience: prepare `scheme` on a fresh PFS with `config` and replay.
/// `store_data` toggles byte-accurate mode (see pfs::PfsOptions).
common::Result<ReplayResult> run_scheme(layouts::LayoutScheme& scheme,
                                        const sim::ClusterConfig& config,
                                        const trace::Trace& trace,
                                        const ReplayOptions& options = {},
                                        bool store_data = false);

/// Deterministic payload byte for a write at `offset` during replay.
inline std::uint8_t replay_write_byte(common::Offset offset) {
  return static_cast<std::uint8_t>(layouts::populate_byte(offset) ^ 0xA5);
}

/// Block form of replay_write_byte (see layouts::populate_fill).
inline void replay_write_fill(common::Offset start, std::uint8_t* out,
                              common::ByteCount n) {
  constexpr std::uint64_t kStep = 1315423911ULL;
  std::uint64_t acc = start * kStep;
  for (common::ByteCount i = 0; i < n; ++i, acc += kStep) {
    out[i] = static_cast<std::uint8_t>(acc >> 17) ^ std::uint8_t{0xA5};
  }
}

}  // namespace mha::workloads
