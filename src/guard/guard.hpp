// Overload-resilience guard for the client dispatch path.
//
// Past saturation a parallel file system does not degrade gracefully by
// default: retries multiply offered load (the retry-storm / metastable
// failure recipe), requests that give up leave sibling sub-request charges
// loading the servers, and browned-out servers keep receiving hedges and
// fresh admissions at full rate.  OverloadGuard bundles the three classic
// countermeasures and exposes them to pfs::HybridPfs as one borrowed
// object:
//
//   1. End-to-end deadlines — each priority tier owns a completion
//      allowance; the replayer puts issue + allowance into every request
//      as its deadline, the dispatch path refuses to let a sub-request's
//      completion cross it, and on refusal cancels the already-charged
//      siblings (ServerSim::try_cancel) so abandoned work stops loading the
//      servers.  Siblings that can no longer be cancelled (a later charge
//      baked their completion in) are counted as *wasted* bytes — the
//      goodput-vs-throughput gap.
//
//   2. Per-server circuit breakers (breaker.hpp) — failure-rate and
//      backlog-EWMA driven; reads bound for an open HServer reroute to the
//      least-loaded healthy SServer replica (the degraded-read fallback),
//      and hedging toward a non-closed server is suppressed.
//
//   3. Admission control + load shedding — per-tier backlog thresholds shed
//      the lowest priority class first with a typed kOverloaded Status, and
//      a global retry-token bucket (earned as a fixed fraction of admitted
//      fresh traffic) caps total retry volume no matter how many requests
//      are individually entitled to retry.
//
// The guard is sized once (num_servers, job->tier map) and mutated only
// through the dispatch path with flat-array state, so attaching it keeps
// the request path zero-allocation.  All decisions advance with virtual
// time only: same trace, same seed, same guard behaviour at any --threads.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "guard/breaker.hpp"

namespace mha::guard {

/// Priority tiers the guard sheds between, lowest first.  Mirrors
/// qos::PriorityClass by value (batch=0, normal=1, interactive=2) without
/// depending on the qos layer — callers map jobs in via set_job_tier().
inline constexpr std::size_t kTierCount = 3;
inline constexpr std::uint8_t kTierBatch = 0;
inline constexpr std::uint8_t kTierNormal = 1;
inline constexpr std::uint8_t kTierInteractive = 2;

const char* tier_name(std::uint8_t tier);

struct GuardOptions {
  BreakerOptions breaker;
  /// Admission gate: a tier-t request is shed when the deepest backlog over
  /// its target servers exceeds shed_backlog[t] virtual seconds.  Ascending
  /// thresholds shed batch first, interactive last; an infinite entry never
  /// sheds that tier.
  std::array<common::Seconds, kTierCount> shed_backlog = {0.05, 0.20, 0.80};
  /// End-to-end completion allowance per tier (seconds past arrival);
  /// infinity disables deadline enforcement for the tier.
  std::array<common::Seconds, kTierCount> deadline = {
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity()};
  /// Retry tokens earned per admitted fresh request; a retry spends 1.0.
  /// Retries can therefore never exceed this fraction of fresh traffic.
  double retry_token_ratio = 0.1;
  /// Token bucket capacity (also the initial balance — the burst).
  double retry_token_burst = 16.0;
};

/// Everything the guard decided, in one table (FaultMetrics style).
struct GuardMetrics {
  std::uint64_t admitted = 0;
  std::array<std::uint64_t, kTierCount> shed = {0, 0, 0};
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_half_opens = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t breaker_rejections = 0;  ///< sub-requests an open breaker turned away
  std::uint64_t breaker_reroutes = 0;    ///< reads replanned to a healthy SServer
  std::uint64_t hedges_suppressed = 0;
  std::uint64_t retry_tokens_granted = 0;
  std::uint64_t retry_tokens_denied = 0;
  std::uint64_t deadline_misses = 0;     ///< requests abandoned at their deadline
  std::uint64_t siblings_cancelled = 0;  ///< sibling charges rewound via try_cancel
  std::uint64_t siblings_wasted = 0;     ///< siblings no longer cancellable
  common::ByteCount bytes_rescued = 0;   ///< bytes of cancelled sibling charges
  common::ByteCount bytes_wasted = 0;    ///< bytes left loading servers for nothing

  std::uint64_t shed_total() const { return shed[0] + shed[1] + shed[2]; }

  /// stats_table()-style multi-line report.
  std::string table() const;
};

class OverloadGuard {
 public:
  explicit OverloadGuard(std::size_t num_servers, GuardOptions options = {});

  const GuardOptions& options() const { return options_; }
  std::size_t num_servers() const { return breakers_.size(); }

  /// Maps a job to its shedding tier (default: every job is kTierNormal).
  void set_job_tier(common::JobId job, std::uint8_t tier);
  std::uint8_t tier_of(common::JobId job) const {
    return job < job_tier_.size() ? job_tier_[job] : kTierNormal;
  }

  /// Deadline a tier-`tier` request arriving at `arrival` must meet
  /// (infinity when the tier has no allowance configured).
  common::Seconds deadline_for(std::uint8_t tier, common::Seconds arrival) const {
    return arrival + options_.deadline[tier < kTierCount ? tier : kTierNormal];
  }

  /// Admission gate: sheds the request (false) when `max_backlog` exceeds
  /// the job's tier threshold; earns retry tokens on admission.
  bool admit(common::JobId job, common::Seconds max_backlog);

  /// Breaker gate for one sub-request at `now` (mutating: may transition
  /// OPEN -> HALF-OPEN and consumes a probe slot when it grants one).
  bool breaker_allow(std::size_t server, common::Seconds now);

  /// Non-mutating health query (hedge suppression; never burns a probe).
  bool breaker_healthy(std::size_t server) const {
    return breakers_[server].healthy();
  }
  BreakerState breaker_state(std::size_t server) const {
    return breakers_[server].state();
  }
  const CircuitBreaker& breaker(std::size_t server) const { return breakers_[server]; }

  /// Feeds a backlog observation / sub-request outcome to a server's breaker.
  void observe_server(std::size_t server, common::Seconds now,
                      common::Seconds backlog) {
    breakers_[server].observe_backlog(now, backlog);
  }
  void record_server(std::size_t server, common::Seconds now, bool success) {
    breakers_[server].record(now, success);
  }

  /// Spends one retry token; false (and counted) when the bucket is dry.
  bool take_retry_token();
  double retry_tokens() const { return retry_tokens_; }

  // Dispatch-path ledger notes.
  void note_breaker_rejection() { ++metrics_.breaker_rejections; }
  void note_reroute() { ++metrics_.breaker_reroutes; }
  void note_hedge_suppressed() { ++metrics_.hedges_suppressed; }
  void note_deadline_miss() { ++metrics_.deadline_misses; }
  void note_sibling_cancelled(common::ByteCount bytes) {
    ++metrics_.siblings_cancelled;
    metrics_.bytes_rescued += bytes;
  }
  void note_sibling_wasted(common::ByteCount bytes) {
    ++metrics_.siblings_wasted;
    metrics_.bytes_wasted += bytes;
  }

  /// Snapshot with the per-breaker transition counters folded in.
  GuardMetrics metrics() const;

  std::string stats_table() const { return metrics().table(); }

 private:
  GuardOptions options_;
  std::vector<CircuitBreaker> breakers_;
  /// Flat job -> tier map (index == JobId; grown only by set_job_tier).
  std::vector<std::uint8_t> job_tier_;
  double retry_tokens_ = 0.0;
  GuardMetrics metrics_;
};

}  // namespace mha::guard
