// Overload-resilience guard: breaker state machine, tiered shedding, retry
// tokens, deadline-propagated cancellation, and chaos-cell determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "exec/thread_pool.hpp"
#include "guard/breaker.hpp"
#include "guard/chaos.hpp"
#include "guard/guard.hpp"
#include "pfs/file_system.hpp"
#include "sim/cluster_sim.hpp"

namespace mha::guard {
namespace {

BreakerOptions fast_breaker() {
  BreakerOptions options;
  options.window = 8;
  options.min_samples = 4;
  options.failure_threshold = 0.5;
  options.open_cooldown = 0.2;
  options.probe_interval = 0.02;
  options.close_after = 3;
  return options;
}

// -------------------------------------------------- breaker state machine ---

TEST(CircuitBreaker, OpensAtWindowedFailureRateNotBefore) {
  CircuitBreaker breaker(fast_breaker());
  // Under min_samples the rate is untrusted: three straight failures alone
  // must not open.
  breaker.record(0.01, false);
  breaker.record(0.02, false);
  breaker.record(0.03, false);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_DOUBLE_EQ(breaker.failure_rate(), 0.0);  // untrusted yet
  breaker.record(0.04, true);
  // 3/4 >= 0.5 with min_samples met -> open.
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.counters().opens, 1u);
}

TEST(CircuitBreaker, NeverAdmitsWhileOpenBeforeCooldown) {
  CircuitBreaker breaker(fast_breaker());
  for (int i = 0; i < 4; ++i) breaker.record(0.01 * i, false);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  // Dense scan of the cooldown (which runs from the open at t=0.03): not a
  // single admission.
  for (double t = 0.04; t < 0.225; t += 0.001) {
    EXPECT_FALSE(breaker.allow(t)) << "admitted at t=" << t;
  }
  EXPECT_EQ(breaker.counters().probes, 0u);
}

TEST(CircuitBreaker, HalfOpenProbesOnCadenceAndClosesAfterSuccesses) {
  CircuitBreaker breaker(fast_breaker());
  for (int i = 0; i < 4; ++i) breaker.record(0.0, false);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  // Cooldown elapsed: the transition grants the first probe immediately.
  EXPECT_TRUE(breaker.allow(0.25));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.counters().half_opens, 1u);
  EXPECT_EQ(breaker.counters().probes, 1u);
  // Between probes everything is rejected.
  EXPECT_FALSE(breaker.allow(0.255));
  EXPECT_FALSE(breaker.allow(0.269));
  breaker.record(0.26, true);
  // Next probe only after probe_interval.
  EXPECT_TRUE(breaker.allow(0.28));
  breaker.record(0.285, true);
  EXPECT_TRUE(breaker.allow(0.31));
  breaker.record(0.315, true);  // third consecutive success
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.healthy());
  EXPECT_EQ(breaker.counters().closes, 1u);
  // Closing resets the outcome window: one old failure must not re-trip.
  breaker.record(0.3, false);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, ProbeFailureReopensAndRestartsCooldown) {
  CircuitBreaker breaker(fast_breaker());
  for (int i = 0; i < 4; ++i) breaker.record(0.0, false);
  ASSERT_TRUE(breaker.allow(0.25));  // half-open probe
  breaker.record(0.26, false);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.counters().opens, 2u);
  // The fresh cooldown counts from the reopen, not the original open.
  EXPECT_FALSE(breaker.allow(0.40));
  EXPECT_TRUE(breaker.allow(0.26 + 0.21));
}

TEST(CircuitBreaker, BacklogEwmaOpensWithoutAnyFailure) {
  BreakerOptions options = fast_breaker();
  options.backlog_unhealthy = 0.05;
  options.backlog_alpha = 0.5;
  CircuitBreaker breaker(options);
  // A browned-out server succeeds, slowly: all outcomes good, backlog up.
  breaker.record(0.01, true);
  breaker.observe_backlog(0.01, 0.02);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.observe_backlog(0.02, 0.2);
  breaker.observe_backlog(0.03, 0.2);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_DOUBLE_EQ(breaker.failure_rate(), 0.0);
}

// ------------------------------------------------- shedding + retry tokens ---

TEST(OverloadGuard, ShedsStrictlyByTierThreshold) {
  GuardOptions options;
  options.shed_backlog = {0.05, 0.20, 0.80};
  OverloadGuard guard(2, options);
  guard.set_job_tier(0, kTierBatch);
  guard.set_job_tier(1, kTierNormal);
  guard.set_job_tier(2, kTierInteractive);

  // Backlog between the batch and normal thresholds: only batch is shed.
  EXPECT_FALSE(guard.admit(0, 0.10));
  EXPECT_TRUE(guard.admit(1, 0.10));
  EXPECT_TRUE(guard.admit(2, 0.10));
  // Between normal and interactive: batch and normal shed.
  EXPECT_FALSE(guard.admit(0, 0.50));
  EXPECT_FALSE(guard.admit(1, 0.50));
  EXPECT_TRUE(guard.admit(2, 0.50));
  // Past every threshold: even interactive sheds.
  EXPECT_FALSE(guard.admit(2, 1.00));

  const GuardMetrics m = guard.metrics();
  EXPECT_EQ(m.admitted, 3u);
  EXPECT_EQ(m.shed[kTierBatch], 2u);
  EXPECT_EQ(m.shed[kTierNormal], 1u);
  EXPECT_EQ(m.shed[kTierInteractive], 1u);
  EXPECT_EQ(m.shed_total(), 4u);
  // An unmapped job defaults to the normal tier.
  EXPECT_EQ(guard.tier_of(99), kTierNormal);
}

TEST(OverloadGuard, RetryTokensExhaustThenRefillFromAdmissions) {
  GuardOptions options;
  options.retry_token_ratio = 0.5;
  options.retry_token_burst = 2.0;
  OverloadGuard guard(1, options);

  // The burst is the initial balance: exactly two tokens to spend.
  EXPECT_TRUE(guard.take_retry_token());
  EXPECT_TRUE(guard.take_retry_token());
  EXPECT_FALSE(guard.take_retry_token());
  // Two admissions earn one token (ratio 0.5)...
  EXPECT_TRUE(guard.admit(0, 0.0));
  EXPECT_FALSE(guard.take_retry_token());  // 0.5 < 1.0: still dry
  EXPECT_TRUE(guard.admit(0, 0.0));
  EXPECT_TRUE(guard.take_retry_token());
  // ...and the balance never exceeds the burst cap.
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(guard.admit(0, 0.0));
  EXPECT_TRUE(guard.take_retry_token());
  EXPECT_TRUE(guard.take_retry_token());
  EXPECT_FALSE(guard.take_retry_token());

  const GuardMetrics m = guard.metrics();
  EXPECT_EQ(m.retry_tokens_granted, 5u);
  EXPECT_EQ(m.retry_tokens_denied, 3u);
}

// ------------------------------------------- deadline-propagated cancel ---

TEST(OverloadGuard, DeadlineMissCancelsChargedSiblingsAndRestoresServers) {
  sim::ClusterConfig config;
  config.num_hservers = 2;
  config.num_sservers = 1;
  pfs::HybridPfs pfs(config);
  auto file = pfs.create_file("deadline");
  ASSERT_TRUE(file.is_ok());

  OverloadGuard guard(pfs.num_servers());
  pfs.set_guard(&guard);
  // A deadline no multi-server write can meet: the first sub-request's
  // completion already crosses it.
  std::vector<std::uint8_t> data(256 * 1024, 0xCD);
  const auto before_table = pfs.stats_table();
  auto io = pfs.write(*file, 0, data.data(), data.size(), 0.0, common::kDefaultJob, 1e-9);
  EXPECT_FALSE(io.is_ok());

  const GuardMetrics m = guard.metrics();
  EXPECT_EQ(m.deadline_misses, 1u);
  // The charged sub-requests were all rewound LIFO — nothing wasted, every
  // byte rescued, and the per-server tables read as if nothing happened.
  EXPECT_GE(m.siblings_cancelled, 1u);
  EXPECT_EQ(m.siblings_wasted, 0u);
  EXPECT_GT(m.bytes_rescued, 0u);
  EXPECT_EQ(m.bytes_wasted, 0u);
  EXPECT_EQ(pfs.stats_table(), before_table);
  for (std::size_t s = 0; s < pfs.num_servers(); ++s) {
    EXPECT_EQ(pfs.server_stats(s).sub_requests, 0u);
    EXPECT_EQ(pfs.server_stats(s).bytes_wasted, 0u);
  }

  // Without the deadline the same request succeeds untouched.
  EXPECT_TRUE(pfs.write(*file, 0, data.data(), data.size(), 1.0).is_ok());
}

TEST(StatsTable, ReportsWastedBytesColumn) {
  sim::ClusterConfig config;
  config.num_hservers = 1;
  config.num_sservers = 1;
  pfs::HybridPfs pfs(config);
  EXPECT_NE(pfs.stats_table().find("wasted"), std::string::npos);
}

// ----------------------------------------------------- chaos determinism ---

/// Field-by-field bitwise comparison of two chaos summaries.
void expect_same_cell(const ChaosCellResult& a, const ChaosCellResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.late, b.late);
  EXPECT_EQ(a.throughput_mib_s, b.throughput_mib_s);
  EXPECT_EQ(a.goodput_mib_s, b.goodput_mib_s);
  for (std::size_t t = 0; t < kTierCount; ++t) {
    EXPECT_EQ(a.requests_by_tier[t], b.requests_by_tier[t]);
    EXPECT_EQ(a.shed_by_tier[t], b.shed_by_tier[t]);
    EXPECT_EQ(a.goodput_by_tier[t], b.goodput_by_tier[t]);
  }
  EXPECT_EQ(a.guard_metrics.admitted, b.guard_metrics.admitted);
  EXPECT_EQ(a.guard_metrics.shed_total(), b.guard_metrics.shed_total());
  EXPECT_EQ(a.guard_metrics.breaker_opens, b.guard_metrics.breaker_opens);
  EXPECT_EQ(a.guard_metrics.bytes_rescued, b.guard_metrics.bytes_rescued);
  EXPECT_EQ(a.fault_metrics.transient_errors, b.fault_metrics.transient_errors);
  EXPECT_EQ(a.fault_metrics.retries, b.fault_metrics.retries);
}

TEST(ChaosCell, BitIdenticalAcrossThreadCounts) {
  ChaosOptions options;
  options.scale = 0.05;
  options.load = 2.0;

  // The bench's exact shape: naive and guarded cells fanned out on the
  // default pool.  One thread vs eight must agree bit for bit.
  const auto sweep = [&]() {
    return exec::default_pool().parallel_map(2, [&](std::size_t i) {
      ChaosOptions cell = options;
      cell.guarded = i == 1;
      auto result = run_chaos_cell(cell);
      EXPECT_TRUE(result.is_ok());
      return result.is_ok() ? *result : ChaosCellResult{};
    });
  };
  const std::size_t restore = exec::default_threads();
  exec::set_default_threads(1);
  const auto serial = sweep();
  exec::set_default_threads(8);
  const auto parallel = sweep();
  exec::set_default_threads(restore);
  ASSERT_EQ(serial.size(), parallel.size());
  expect_same_cell(serial[0], parallel[0]);
  expect_same_cell(serial[1], parallel[1]);
  // And the contrast the bench gates on is present even at smoke scale:
  // the guarded cell sheds, and sheds (almost) only batch.
  EXPECT_GT(parallel[1].shed, 0u);
  EXPECT_GE(static_cast<double>(parallel[1].shed_by_tier[kTierBatch]),
            0.9 * static_cast<double>(parallel[1].shed));
}

}  // namespace
}  // namespace mha::guard
