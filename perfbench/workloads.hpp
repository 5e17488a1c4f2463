// The benchmark's four workloads, each built from a seed and run as one
// repetition through the library's public entry points: trace generators,
// core::MhaPipeline::deploy, workloads::replay and repair::Rebuilder.
//
// A repetition builds a fresh world (cluster, traces, populated files), plans
// and deploys MHA, then replays closed-loop (ReplayMode::kSynchronous: a
// rank's next request waits for its previous one, with a barrier per
// iteration).  Simulated ranks are not host threads: replay runs on the
// calling thread; only planning uses exec::default_pool().
//
// With a SpanRecorder attached the repetition is traced: planning runs stage
// by stage (and is checked against MhaPipeline::analyze), translate calls go
// through a timing decorator, and every iteration and rebuild step is a span.
// See NOTES.md for why each workload exists and what it should move.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cache/page_cache.hpp"
#include "common/result.hpp"
#include "fault/injector.hpp"
#include "guard/guard.hpp"
#include "pfs/file_system.hpp"
#include "repair/rebuilder.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Workload { kPlan, kServe, kWriteback, kDegraded };

/// Maps "plan" / "serve" / "writeback" / "degraded" to a workload.
bool parse_workload(std::string_view name, Workload& out);

/// The simulated (virtual-time) answer of a repetition.  It must be identical
/// across repetitions, exec pool sizes and traced vs untraced runs; a
/// performance change must leave it unchanged.
struct SimDigest {
  double makespan_s = 0.0;      ///< summed over the workload's replays
  double latency_p99_s = 0.0;   ///< worst replay's request p99
  double hserver_busy_s = 0.0;
  double sserver_busy_s = 0.0;
  double queue_wait_s = 0.0;
  std::uint64_t bytes = 0;      ///< application bytes replayed
  std::uint64_t requests = 0;   ///< application requests attempted
  std::uint64_t failed = 0;     ///< failed + shed requests
  std::uint64_t subops = 0;     ///< server sub-requests charged
  std::uint64_t plan_hash = 0;  ///< regions, stripe pairs and DRT size of every plan

  friend bool operator==(const SimDigest&, const SimDigest&) = default;
};

/// Per-layer counts from the library's public stats snapshots.
struct LayerCounts {
  std::uint64_t groups = 0;
  std::uint64_t grouping_iterations = 0;
  std::uint64_t drt_entries = 0;
  std::uint64_t rssd_pairs = 0;        ///< traced runs only
  std::uint64_t replicas = 0;
  std::uint64_t placed_bytes = 0;      ///< migrated + replicated
  std::uint64_t translate_calls = 0;   ///< traced runs only
  std::uint64_t translate_segments = 0;
  std::uint64_t replay_allocations = 0;  ///< traced runs only (counting hook)
  std::uint64_t sched_requests = 0;
  std::uint64_t sched_reorders = 0;
  std::uint64_t sched_deferrals = 0;
  mha::cache::CacheMetrics cache;
  mha::guard::GuardMetrics guard;
  mha::fault::FaultMetrics fault;
  mha::pfs::FailoverStats failover;
  mha::repair::RebuildReport rebuild;
};

struct Repetition {
  double setup_s = 0.0;   ///< cluster build + trace generation + populate
  double plan_s = 0.0;    ///< MHA deploy (analyze + placement + redirector)
  double replay_s = 0.0;  ///< host wall time inside workloads::replay
  std::uint64_t replayed_requests = 0;  ///< over every replay pass
  std::uint64_t replayed_bytes = 0;
  /// Host wall time of each barrier-to-barrier iteration.
  std::vector<double> iteration_s;
  SimDigest sim;
  LayerCounts counts;
  /// The final file contents were re-read and matched the model.
  bool content_checked = false;
};

/// Runs one repetition of `workload` in a fresh world.  Scratch KV files go
/// under `workdir`.  `spans` non-null makes it a traced repetition.
/// `check_content` additionally re-reads the final file contents against an
/// independent flat-file model (workloads that store data, when every
/// request completed).
mha::common::Result<Repetition> run_repetition(Workload workload, std::uint64_t seed,
                                               const std::string& workdir,
                                               SpanRecorder* spans, bool check_content);

/// Content-plane kernels on 64 KiB checksum chunks (traced runs).
struct KernelTimes {
  double crc32_mib_per_s = 0.0;
  double write_4k_us = 0.0;          ///< ExtentStore::write of 4 KiB
  double verified_read_4k_us = 0.0;  ///< ExtentStore::verified_read of 4 KiB
};

mha::common::Result<KernelTimes> time_content_kernels(std::uint64_t seed,
                                                      SpanRecorder& spans);

/// One line per workload for the run header: trace sizes, ranks, cache pool.
std::string describe(Workload workload, std::uint64_t seed);

}  // namespace perfbench
