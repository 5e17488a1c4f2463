// Fault injection, degraded-mode client I/O and crash-safe migration.
//
// Covers the injector's virtual-time fault windows, the retry policy, the
// HybridPfs degraded dispatch path (retries, degraded reads, redo-logged
// writes, budget exhaustion), the phase-stamped migration journal with
// crash-at-every-phase recovery, and the negative paths the robustness issue
// calls out (beyond-EOF redirection, zero-size requests under faults,
// truncated RST recovery, replay verification mismatches).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "core/recovery.hpp"
#include "fault/context.hpp"
#include "fault/injector.hpp"
#include "fault/journal.hpp"
#include "fault/retry.hpp"
#include "io/mpi_file.hpp"
#include "layouts/scheme.hpp"
#include "test_paths.hpp"
#include "workloads/replayer.hpp"

namespace mha {
namespace {

using common::OpType;
using namespace common::literals;

/// Predictable service math (no network, no queued-startup discount).
sim::DeviceProfile slow_device() {
  sim::DeviceProfile d;
  d.name = "slow";
  d.startup_read = 1.0;
  d.startup_write = 2.0;
  d.per_byte_read = 0.001;
  d.per_byte_write = 0.002;
  d.queued_startup_factor = 1.0;
  return d;
}

sim::DeviceProfile fast_device() {
  sim::DeviceProfile d;
  d.name = "fast";
  d.startup_read = 0.1;
  d.startup_write = 0.2;
  d.per_byte_read = 0.0001;
  d.per_byte_write = 0.0002;
  d.queued_startup_factor = 1.0;
  return d;
}

sim::ClusterConfig tiny_cluster(std::size_t hservers = 2, std::size_t sservers = 1) {
  sim::ClusterConfig config;
  config.num_hservers = hservers;
  config.num_sservers = sservers;
  config.hdd = slow_device();
  config.ssd = fast_device();
  config.network = sim::null_network();
  return config;
}

fault::FaultWindow crash(std::size_t server, common::Seconds start, common::Seconds end) {
  fault::FaultWindow w;
  w.server = server;
  w.kind = fault::FaultKind::kCrash;
  w.start = start;
  w.end = end;
  return w;
}

fault::FaultWindow transient(std::size_t server, common::Seconds start, common::Seconds end,
                             double probability) {
  fault::FaultWindow w;
  w.server = server;
  w.kind = fault::FaultKind::kTransient;
  w.start = start;
  w.end = end;
  w.probability = probability;
  return w;
}

fault::FaultWindow brownout(std::size_t server, common::Seconds start, common::Seconds end,
                            double factor) {
  fault::FaultWindow w;
  w.server = server;
  w.kind = fault::FaultKind::kBrownout;
  w.start = start;
  w.end = end;
  w.factor = factor;
  return w;
}

// ----------------------------------------------------------- injector ---

TEST(FaultInjector, WindowQueriesAndChainedOutages) {
  fault::FaultInjector injector;
  injector.add(crash(0, 1.0, 2.0));
  injector.add(crash(0, 1.8, 3.0));  // overlaps the first: one long outage
  injector.add(crash(1, 5.0, 6.0));

  EXPECT_FALSE(injector.offline(0, 0.5));
  EXPECT_TRUE(injector.offline(0, 1.0));
  EXPECT_TRUE(injector.offline(0, 2.5));
  EXPECT_FALSE(injector.offline(0, 3.0));  // half-open
  EXPECT_FALSE(injector.offline(1, 1.5));

  EXPECT_DOUBLE_EQ(injector.recovery_time(0, 0.5), 0.5);
  // Chained windows must push past BOTH, whatever order they are scanned in.
  EXPECT_DOUBLE_EQ(injector.recovery_time(0, 1.5), 3.0);
  EXPECT_DOUBLE_EQ(injector.recovery_time(1, 5.5), 6.0);
}

TEST(FaultInjector, BrownoutFactorAppliesInsideWindowOnly) {
  fault::FaultInjector injector;
  injector.add(brownout(2, 4.0, 6.0, 3.5));
  EXPECT_DOUBLE_EQ(injector.service_factor(2, 5.0), 3.5);
  EXPECT_DOUBLE_EQ(injector.service_factor(2, 6.0), 1.0);
  EXPECT_DOUBLE_EQ(injector.service_factor(1, 5.0), 1.0);
}

TEST(FaultInjector, RandomScheduleIsSeedDeterministic) {
  fault::RandomFaultConfig config;
  config.num_servers = 4;
  config.horizon = 10.0;
  config.crashes_per_server = 1.5;
  config.brownouts_per_server = 0.75;
  config.transient_probability = 0.05;

  fault::FaultInjector a(42), b(42), c(43);
  a.add_random(config);
  b.add_random(config);
  c.add_random(config);
  ASSERT_EQ(a.windows().size(), b.windows().size());
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    EXPECT_EQ(a.windows()[i].server, b.windows()[i].server);
    EXPECT_EQ(a.windows()[i].kind, b.windows()[i].kind);
    EXPECT_DOUBLE_EQ(a.windows()[i].start, b.windows()[i].start);
    EXPECT_DOUBLE_EQ(a.windows()[i].end, b.windows()[i].end);
  }
  // A different seed produces a different schedule (overwhelmingly likely).
  bool differs = a.windows().size() != c.windows().size();
  for (std::size_t i = 0; !differs && i < a.windows().size(); ++i) {
    differs = a.windows()[i].start != c.windows()[i].start;
  }
  EXPECT_TRUE(differs);
}

// ------------------------------------------------------------ sim hook ---

TEST(FaultHook, CrashWindowPushesStartPastOutage) {
  sim::ServerSim server(common::ServerKind::kHdd, slow_device(), sim::null_network());
  fault::FaultInjector injector;
  injector.add(crash(0, 1.0, 2.0));
  server.set_fault_hook(&injector, 0);

  const common::Seconds done = server.submit(OpType::kRead, 100, 1.5);
  EXPECT_DOUBLE_EQ(done, 2.0 + server.service_time(OpType::kRead, 100));
}

TEST(FaultHook, PredictMatchesChargeUnderFaults) {
  sim::ServerSim server(common::ServerKind::kHdd, slow_device(), sim::null_network());
  fault::FaultInjector injector;
  injector.add(crash(0, 2.0, 3.0));
  injector.add(brownout(0, 5.0, 10.0, 4.0));
  server.set_fault_hook(&injector, 0);

  for (const common::Seconds arrival : {0.0, 2.5, 5.5, 9.9}) {
    const common::Seconds predicted = server.predict(OpType::kRead, 4_KiB, arrival);
    const sim::Charge charged = server.charge(OpType::kRead, 4_KiB, arrival);
    EXPECT_DOUBLE_EQ(predicted, charged.completion) << "arrival " << arrival;
  }
  // Brownout actually inflated service: a 4 KiB read starting at 5.5 (fresh
  // queue, inside the factor-4 window) costs 4x the plain service time.
  sim::ServerSim faulted(common::ServerKind::kHdd, slow_device(), sim::null_network());
  faulted.set_fault_hook(&injector, 0);
  sim::ServerSim plain(common::ServerKind::kHdd, slow_device(), sim::null_network());
  EXPECT_GT(faulted.charge(OpType::kRead, 4_KiB, 5.5).service,
            plain.charge(OpType::kRead, 4_KiB, 5.5).service * 3.9);
}

// --------------------------------------------------------------- retry ---

TEST(RetryPolicy, BackoffDoublesAndCapsWithoutJitter) {
  fault::RetryPolicy policy;
  policy.base_backoff = 1e-3;
  policy.multiplier = 2.0;
  policy.max_backoff = 8e-3;
  policy.jitter = 0.0;
  common::Rng rng(1);
  EXPECT_DOUBLE_EQ(fault::backoff_delay(policy, 1, rng), 1e-3);
  EXPECT_DOUBLE_EQ(fault::backoff_delay(policy, 2, rng), 2e-3);
  EXPECT_DOUBLE_EQ(fault::backoff_delay(policy, 3, rng), 4e-3);
  EXPECT_DOUBLE_EQ(fault::backoff_delay(policy, 4, rng), 8e-3);
  EXPECT_DOUBLE_EQ(fault::backoff_delay(policy, 10, rng), 8e-3);  // capped
}

TEST(RetryPolicy, JitterIsBoundedAndSeedDeterministic) {
  fault::RetryPolicy policy;  // jitter = 0.2
  common::Rng a(7), b(7);
  for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
    const common::Seconds da = fault::backoff_delay(policy, attempt, a);
    const common::Seconds db = fault::backoff_delay(policy, attempt, b);
    EXPECT_DOUBLE_EQ(da, db);
    const common::Seconds nominal =
        std::min(policy.base_backoff * std::pow(policy.multiplier,
                                                static_cast<double>(attempt - 1)),
                 policy.max_backoff);
    EXPECT_GE(da, nominal * (1.0 - policy.jitter));
    EXPECT_LE(da, nominal * (1.0 + policy.jitter));
  }
}

TEST(RetryPolicy, HugeAttemptCountSaturatesAtCapWithoutOverflow) {
  // With the pow() form, multiplier^(attempt-1) overflows to inf long before
  // attempt 10000; the iterative form must stop growing at the cap.
  fault::RetryPolicy policy;
  policy.jitter = 0.0;
  common::Rng rng(1);
  const common::Seconds d = fault::backoff_delay(policy, 10000, rng);
  EXPECT_TRUE(std::isfinite(d));
  EXPECT_DOUBLE_EQ(d, policy.max_backoff);
}

TEST(RetryPolicy, ZeroBaseBackoffStaysZeroNotNaN) {
  // base == 0 made the pow() form compute 0 * inf = NaN at large attempts,
  // which survives min() and poisons every later virtual-time sum.
  fault::RetryPolicy policy;
  policy.base_backoff = 0.0;
  policy.jitter = 0.0;
  common::Rng rng(1);
  for (const std::size_t attempt : {std::size_t{1}, std::size_t{64}, std::size_t{100000}}) {
    EXPECT_EQ(fault::backoff_delay(policy, attempt, rng), 0.0) << attempt;
  }
}

TEST(RetryPolicy, CapBoundaryAttemptIsBitExact) {
  // 0.5 ms * 2^7 == 64 ms exactly: the attempt that lands on the cap must
  // equal it bit-for-bit (the early-stop loop must not change the default
  // schedule), and later attempts stay pinned there.
  fault::RetryPolicy policy;  // base 0.5e-3, multiplier 2, cap 64e-3
  policy.jitter = 0.0;
  common::Rng rng(1);
  EXPECT_LT(fault::backoff_delay(policy, 7, rng), policy.max_backoff);
  EXPECT_DOUBLE_EQ(fault::backoff_delay(policy, 8, rng), policy.max_backoff);
  EXPECT_DOUBLE_EQ(fault::backoff_delay(policy, 9, rng), policy.max_backoff);
}

// ------------------------------------------------- degraded-mode client ---

class DegradedIoTest : public ::testing::Test {
 protected:
  /// A PFS with an attached context, one file striped over all servers and
  /// populated with the deterministic byte pattern.
  void attach(const sim::ClusterConfig& config, fault::RetryPolicy policy = {}) {
    pfs_ = std::make_unique<pfs::HybridPfs>(config);
    // Populate fault-free so the redo log starts empty even when a fault
    // window covers t=0; the context attaches only for the test's own I/O.
    file_ = *pfs_->create_file("f", pfs::StripeLayout::uniform(pfs_->num_servers(), 64_KiB));
    ASSERT_TRUE(layouts::populate_file(*pfs_, file_, kExtent).is_ok());
    context_ = std::make_unique<fault::FaultContext>(injector_, policy);
    pfs_->set_fault_context(context_.get());
    pfs_->reset_clocks();
    pfs_->reset_stats();
    injector_.reset_metrics();
  }

  std::vector<std::uint8_t> expected(common::Offset offset, common::ByteCount size) const {
    std::vector<std::uint8_t> out(size);
    for (common::ByteCount i = 0; i < size; ++i) out[i] = layouts::populate_byte(offset + i);
    return out;
  }

  static constexpr common::ByteCount kExtent = 512_KiB;
  fault::FaultInjector injector_;
  std::unique_ptr<fault::FaultContext> context_;
  std::unique_ptr<pfs::HybridPfs> pfs_;
  common::FileId file_ = common::kInvalidFileId;
};

TEST_F(DegradedIoTest, TransientFailuresAreRetriedToSuccess) {
  // Transients fire with certainty until t = 2 ms; backoff walks the retry
  // past the window and the request then succeeds.
  injector_.add(transient(0, 0.0, 2e-3, 1.0));
  fault::RetryPolicy policy;
  policy.jitter = 0.0;
  attach(tiny_cluster(), policy);

  auto r = pfs_->read_bytes(file_, 0, 4_KiB, 0.0);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(*r, expected(0, 4_KiB));
  const fault::FaultMetrics& m = injector_.metrics();
  EXPECT_GT(m.transient_errors, 0u);
  EXPECT_GT(m.retries, 0u);
  EXPECT_GT(m.backoff_seconds, 0.0);
  EXPECT_EQ(m.budget_exhausted, 0u);
}

TEST_F(DegradedIoTest, TransientExhaustionSurfacesIoError) {
  injector_.add(transient(0, 0.0, 1e9, 1.0));  // never stops failing
  fault::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.jitter = 0.0;
  attach(tiny_cluster(), policy);

  auto r = pfs_->read_bytes(file_, 0, 4_KiB, 0.0);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), common::ErrorCode::kIoError);
  EXPECT_EQ(injector_.metrics().budget_exhausted, 1u);
  EXPECT_EQ(injector_.metrics().retries, 2u);  // 3 attempts = 2 retries
}

TEST_F(DegradedIoTest, OfflineWaitPastBudgetSurfacesUnavailable) {
  // Only SServer (index 2 in a 2H+1S cluster) holds the data; its outage
  // outlasts the request budget and there is no replica to degrade to.
  injector_.add(crash(2, 0.0, 100.0));
  fault::RetryPolicy policy;
  policy.timeout_budget = 1.0;
  attach(tiny_cluster(), policy);
  auto sserver_only =
      pfs::StripeLayout::stripe_pair(pfs_->num_hservers(), pfs_->num_sservers(), 0, 64_KiB);
  ASSERT_TRUE(sserver_only.is_ok());
  const common::FileId ssd_file =
      *pfs_->create_file("ssd_only", std::move(sserver_only).take());
  std::vector<std::uint8_t> payload(4_KiB, 0x42);
  // The write itself parks in the redo log (acknowledged); the READ must
  // wait for the server and exhausts its budget.
  ASSERT_TRUE(pfs_->write(ssd_file, 0, payload, 0.0).is_ok());
  auto r = pfs_->read_bytes(ssd_file, 0, 4_KiB, 0.0);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), common::ErrorCode::kUnavailable);
  EXPECT_EQ(injector_.metrics().budget_exhausted, 1u);
}

TEST_F(DegradedIoTest, DegradedReadIsByteIdenticalAndBeatsWaiting) {
  injector_.add(crash(0, 0.0, 50.0));  // HServer 0 down for a long time
  attach(tiny_cluster());

  // [0, 64 KiB) lives entirely on the crashed server 0; its bytes degrade to
  // the SServer replica instead of waiting 50 virtual seconds.
  std::vector<std::uint8_t> buffer(64_KiB);
  auto result = pfs_->read(file_, 0, buffer.data(), buffer.size(), 0.0);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(buffer, expected(0, 64_KiB));
  EXPECT_GT(injector_.metrics().degraded_reads, 0u);
  EXPECT_GT(injector_.metrics().offline_hits, 0u);
  // Served well before the outage would have ended.
  EXPECT_LT(result->completion, 50.0);
  // The SServer (index 2) took the charge, not the offline HServer.
  EXPECT_EQ(pfs_->server_stats(0).sub_requests, 0u);
  EXPECT_GT(pfs_->server_stats(2).sub_requests, 0u);
}

TEST_F(DegradedIoTest, DegradedReadPicksLeastLoadedSServer) {
  injector_.add(crash(0, 0.0, 50.0));
  attach(tiny_cluster(2, 2));  // two SServers: indices 2 and 3

  // Pile queue onto SServer 2 so the replica choice must be SServer 3.
  pfs_->data_server(2).sim().submit(OpType::kRead, 1_MiB, 0.0);
  pfs_->reset_stats();

  // [0, 64 KiB) lives entirely on server 0 under the uniform 64 KiB layout.
  auto bytes = pfs_->read_bytes(file_, 0, 64_KiB, 0.0);
  ASSERT_TRUE(bytes.is_ok());
  EXPECT_EQ(*bytes, expected(0, 64_KiB));
  EXPECT_EQ(pfs_->server_stats(3).sub_requests, 1u);
  EXPECT_EQ(pfs_->server_stats(2).sub_requests, 0u);
}

TEST_F(DegradedIoTest, OfflineWriteParksInRedoAndReplaysOnRecovery) {
  injector_.add(crash(0, 0.0, 1.0));
  attach(tiny_cluster());

  // [0, 64 KiB) targets only the crashed server 0: the write acknowledges
  // immediately (redo-logged) and read-your-writes holds via the replica.
  std::vector<std::uint8_t> payload(64_KiB);
  for (common::ByteCount i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  auto w = pfs_->write(file_, 0, payload, 0.5);
  ASSERT_TRUE(w.is_ok()) << w.status().to_string();
  EXPECT_EQ(injector_.metrics().redo_logged, 1u);
  EXPECT_EQ(context_->redo().size(), 1u);
  EXPECT_LT(w->completion, 1.0);  // did not wait out the outage

  auto during = pfs_->read_bytes(file_, 0, 64_KiB, 0.6);
  ASSERT_TRUE(during.is_ok());
  EXPECT_EQ(*during, payload);

  // First request after recovery triggers the replay against server 0.
  auto after = pfs_->read_bytes(file_, 0, 64_KiB, 2.0);
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(*after, payload);
  EXPECT_EQ(injector_.metrics().redo_replayed, 1u);
  EXPECT_EQ(injector_.metrics().redo_bytes, 64_KiB);
  EXPECT_TRUE(context_->redo().empty());
  EXPECT_GE(injector_.metrics().recovery_events, 1u);
  EXPECT_GT(pfs_->server_stats(0).bytes_written, 0u);
}

TEST_F(DegradedIoTest, ZeroSizeRequestsDuringFaultWindowAreNoops) {
  injector_.add(crash(0, 0.0, 10.0));
  injector_.add(transient(1, 0.0, 10.0, 1.0));
  attach(tiny_cluster());

  auto r = pfs_->read(file_, 0, nullptr, 0, 1.0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_DOUBLE_EQ(r->completion, 1.0);
  auto w = pfs_->write(file_, 0, nullptr, 0, 1.0);
  ASSERT_TRUE(w.is_ok());
  const fault::FaultMetrics& m = injector_.metrics();
  EXPECT_EQ(m.transient_errors + m.offline_hits + m.retries + m.redo_logged, 0u);
}

TEST(FaultMetrics, TableMentionsEveryCounterFamily) {
  fault::FaultMetrics m;
  m.transient_errors = 3;
  m.retries = 2;
  m.degraded_reads = 1;
  m.redo_logged = 4;
  const std::string table = m.table();
  EXPECT_NE(table.find("transient=3"), std::string::npos);
  EXPECT_NE(table.find("count=2"), std::string::npos);
  EXPECT_NE(table.find("reads=1"), std::string::npos);
  EXPECT_NE(table.find("redo-logged=4"), std::string::npos);
}

// ------------------------------------------------------------- journal ---

TEST(MigrationJournal, PersistsPlanAndProgressAcrossReopen) {
  const std::string path = test::temp_path("journal");
  {
    fault::MigrationJournal journal;
    ASSERT_TRUE(journal.open(path).is_ok());
    EXPECT_FALSE(journal.active());
    ASSERT_TRUE(journal
                    .begin("orig",
                           {fault::JournalRegion{"orig.mha.r0", {64_KiB, 0, 32_KiB}}},
                           {fault::JournalEntry{0, 64_KiB, "orig.mha.r0", 0},
                            fault::JournalEntry{256_KiB, 64_KiB, "orig.mha.r0", 64_KiB}})
                    .is_ok());
    ASSERT_TRUE(journal.set_phase(fault::JournalPhase::kCopying).is_ok());
    ASSERT_TRUE(journal.set_copy_progress(0, 64_KiB).is_ok());
  }
  fault::MigrationJournal journal;
  ASSERT_TRUE(journal.open(path).is_ok());
  EXPECT_TRUE(journal.active());
  EXPECT_EQ(journal.phase(), fault::JournalPhase::kCopying);
  EXPECT_EQ(journal.o_file(), "orig");
  ASSERT_EQ(journal.regions().size(), 1u);
  EXPECT_EQ(journal.regions()[0].name, "orig.mha.r0");
  EXPECT_EQ(journal.regions()[0].widths,
            (std::vector<common::ByteCount>{64_KiB, 0, 32_KiB}));
  ASSERT_EQ(journal.entries().size(), 2u);
  EXPECT_EQ(journal.entries()[1],
            (fault::JournalEntry{256_KiB, 64_KiB, "orig.mha.r0", 64_KiB}));
  EXPECT_EQ(journal.copy_progress(0), 64_KiB);
  EXPECT_EQ(journal.copy_progress(1), 0u);
  ASSERT_TRUE(journal.clear().is_ok());
  EXPECT_FALSE(journal.active());
  std::remove(path.c_str());
}

TEST(MigrationJournal, RefusesSecondBeginWhileActive) {
  const std::string path = test::temp_path("journal_active");
  fault::MigrationJournal journal;
  ASSERT_TRUE(journal.open(path).is_ok());
  ASSERT_TRUE(journal.begin("a", {}, {}).is_ok());
  auto s = journal.begin("b", {}, {});
  EXPECT_EQ(s.code(), common::ErrorCode::kFailedPrecondition);
  // Committed journals accept a fresh migration again.
  ASSERT_TRUE(journal.commit().is_ok());
  EXPECT_TRUE(journal.begin("b", {}, {}).is_ok());
  std::remove(path.c_str());
}

// --------------------------------------------- crash-safe migration ------

class MigrationCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    journal_path_ = test::temp_path("migration");
    pfs_ = std::make_unique<pfs::HybridPfs>(tiny_cluster(2, 1));
    original_ = *pfs_->create_file("orig");
    ASSERT_TRUE(layouts::populate_file(*pfs_, original_, 512_KiB).is_ok());

    plan_ = core::ReorganizePlan{};
    plan_.drt = core::Drt("orig");
    core::Region region;
    region.name = "orig.mha.r0";
    region.length = 128_KiB;
    plan_.regions.push_back(region);
    ASSERT_TRUE(plan_.drt.insert(core::DrtEntry{0, 64_KiB, "orig.mha.r0", 64_KiB}).is_ok());
    ASSERT_TRUE(
        plan_.drt.insert(core::DrtEntry{256_KiB, 64_KiB, "orig.mha.r0", 0}).is_ok());
  }
  void TearDown() override { std::remove(journal_path_.c_str()); }

  /// Runs a journaled placement that crashes at `point`; returns the
  /// recovery report produced by a freshly-reopened journal (restart).
  core::RecoveryReport crash_and_recover(const std::string& point) {
    core::ApplyOptions options;
    {
      fault::MigrationJournal journal;
      EXPECT_TRUE(journal.open(journal_path_).is_ok());
      options.journal = &journal;
      options.crash_at = [&](std::string_view p) { return p == point; };
      auto report = core::Placer::apply(*pfs_, plan_, {core::StripePair{16_KiB, 48_KiB}},
                                        options);
      EXPECT_FALSE(report.is_ok());
      EXPECT_EQ(report.status().code(), common::ErrorCode::kIoError);
    }
    fault::MigrationJournal reopened;
    EXPECT_TRUE(reopened.open(journal_path_).is_ok());
    auto recovery = core::recover_migration(*pfs_, reopened);
    EXPECT_TRUE(recovery.is_ok()) << recovery.status().to_string();
    return recovery.is_ok() ? std::move(recovery).take() : core::RecoveryReport{};
  }

  std::vector<std::uint8_t> original_bytes(common::Offset offset, common::ByteCount size) {
    return *pfs_->read_bytes(original_, offset, size, 0.0);
  }

  std::vector<std::uint8_t> pattern(common::Offset offset, common::ByteCount size) const {
    std::vector<std::uint8_t> out(size);
    for (common::ByteCount i = 0; i < size; ++i) out[i] = layouts::populate_byte(offset + i);
    return out;
  }

  /// Byte-identical check of the fully-migrated state through a Redirector.
  void verify_migrated(const core::Drt& drt) {
    auto redirector = core::Redirector::create(*pfs_, drt);
    ASSERT_TRUE(redirector.is_ok());
    io::MpiSim mpi(1);
    auto file = io::MpiFile::open(*pfs_, mpi, "orig");
    ASSERT_TRUE(file.is_ok());
    file->set_interceptor(&*redirector);
    std::vector<std::uint8_t> buffer(512_KiB);
    ASSERT_TRUE(file->read_at(0, 0, buffer.data(), buffer.size()).is_ok());
    EXPECT_EQ(buffer, pattern(0, 512_KiB));
    // The displaced ranges really live in the region file.
    auto region = pfs_->open("orig.mha.r0");
    ASSERT_TRUE(region.is_ok());
    EXPECT_EQ(*pfs_->read_bytes(*region, 64_KiB, 64_KiB, 0.0), pattern(0, 64_KiB));
    EXPECT_EQ(*pfs_->read_bytes(*region, 0, 64_KiB, 0.0), pattern(256_KiB, 64_KiB));
  }

  std::string journal_path_;
  std::unique_ptr<pfs::HybridPfs> pfs_;
  common::FileId original_ = common::kInvalidFileId;
  core::ReorganizePlan plan_;
};

TEST_F(MigrationCrashTest, CrashBeforeCopyRollsBack) {
  for (const std::string point : {"planned", "regions-created"}) {
    SCOPED_TRACE(point);
    const core::RecoveryReport report = crash_and_recover(point);
    EXPECT_EQ(report.action, core::RecoveryAction::kRolledBack);
    EXPECT_FALSE(report.has_drt);
    EXPECT_FALSE(pfs_->open("orig.mha.r0").is_ok());  // region gone
    EXPECT_EQ(original_bytes(0, 512_KiB), pattern(0, 512_KiB));
  }
}

TEST_F(MigrationCrashTest, CrashMidCopyRollsForward) {
  const core::RecoveryReport report = crash_and_recover("copying");
  EXPECT_EQ(report.action, core::RecoveryAction::kRolledForward);
  ASSERT_TRUE(report.has_drt);
  EXPECT_EQ(report.bytes_copied, 128_KiB);  // both entries re-copied
  verify_migrated(report.drt);
}

TEST_F(MigrationCrashTest, CrashBetweenEntriesResumesFromProgress) {
  const core::RecoveryReport report = crash_and_recover("copied-entry-0");
  EXPECT_EQ(report.action, core::RecoveryAction::kRolledForward);
  ASSERT_TRUE(report.has_drt);
  EXPECT_EQ(report.bytes_copied, 64_KiB);  // entry 0 was journaled done
  verify_migrated(report.drt);
}

TEST_F(MigrationCrashTest, CrashAfterCopyOrCommitCompletes) {
  for (const std::string point : {"copied", "committed"}) {
    SCOPED_TRACE(point);
    // Each loop iteration needs a fresh un-migrated PFS.
    SetUp();
    const core::RecoveryReport report = crash_and_recover(point);
    EXPECT_EQ(report.action, core::RecoveryAction::kRolledForward);
    ASSERT_TRUE(report.has_drt);
    EXPECT_EQ(report.bytes_copied, 0u);  // nothing left to copy
    verify_migrated(report.drt);
  }
}

TEST_F(MigrationCrashTest, RecoveredJournalIsReusable) {
  (void)crash_and_recover("planned");
  // After recovery the journal is clear: a full, un-crashed placement runs.
  fault::MigrationJournal journal;
  ASSERT_TRUE(journal.open(journal_path_).is_ok());
  EXPECT_FALSE(journal.active());
  core::ApplyOptions options;
  options.journal = &journal;
  auto report = core::Placer::apply(*pfs_, plan_, {core::StripePair{16_KiB, 48_KiB}},
                                    options);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->bytes_migrated, 128_KiB);
  EXPECT_EQ(journal.phase(), fault::JournalPhase::kCommitted);
}

// ------------------------------------------------- pipeline + online ------

trace::TraceRecord rec(int rank, OpType op, common::Offset offset, common::ByteCount size,
                       common::Seconds t) {
  trace::TraceRecord r;
  r.rank = rank;
  r.op = op;
  r.offset = offset;
  r.size = size;
  r.t_start = t;
  return r;
}

trace::Trace mini_trace(const std::string& name) {
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

TEST(PipelineJournal, DeployCrashThenRecoverThenRedeploy) {
  const std::string journal_path = test::temp_path("pipeline");
  pfs::HybridPfs pfs(tiny_cluster(2, 2));
  const trace::Trace trace = mini_trace("orig");
  auto original = *pfs.create_file("orig");
  ASSERT_TRUE(layouts::populate_file(pfs, original, trace::extent_end(trace.records)).is_ok());

  core::MhaOptions options;
  options.journal_path = journal_path;
  auto crash_point = std::make_shared<std::string>("planned");
  options.crash_at = [crash_point](std::string_view p) { return p == *crash_point; };

  auto failed = core::MhaPipeline::deploy(pfs, trace, options);
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.status().code(), common::ErrorCode::kIoError);

  // A second deploy must refuse to run over the unresolved journal.
  auto refused = core::MhaPipeline::deploy(pfs, trace, options);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.status().code(), common::ErrorCode::kFailedPrecondition);

  fault::MigrationJournal journal;
  ASSERT_TRUE(journal.open(journal_path).is_ok());
  auto recovery = core::recover_migration(pfs, journal);
  ASSERT_TRUE(recovery.is_ok()) << recovery.status().to_string();
  EXPECT_EQ(recovery->action, core::RecoveryAction::kRolledBack);
  ASSERT_TRUE(journal.close().is_ok());

  crash_point->clear();  // no more crashes
  auto deployment = core::MhaPipeline::deploy(pfs, trace, options);
  ASSERT_TRUE(deployment.is_ok()) << deployment.status().to_string();
  EXPECT_NE(deployment->redirector, nullptr);
  std::remove(journal_path.c_str());
}

TEST(OnlineJournal, FoldbackCrashRecoversRedirectedWrites) {
  const std::string journal_path = test::temp_path("online");
  pfs::HybridPfs pfs(tiny_cluster(2, 2));
  auto original = *pfs.create_file("dyn");
  const trace::Trace trace = mini_trace("dyn");
  const common::ByteCount extent = trace::extent_end(trace.records);
  ASSERT_TRUE(layouts::populate_file(pfs, original, extent).is_ok());

  core::OnlineOptions options;
  options.window = 64;
  options.min_records = 8;
  options.mha.journal_path = journal_path;
  auto crash_on = std::make_shared<bool>(false);
  options.mha.crash_at = [crash_on](std::string_view p) {
    return *crash_on && p == "foldback-begun";
  };

  auto online = core::OnlineMha::create(pfs, "dyn", options);
  ASSERT_TRUE(online.is_ok());
  for (const trace::TraceRecord& r : trace.records) (*online)->observe(r);
  ASSERT_TRUE((*online)->adapt_now().is_ok());
  ASSERT_NE((*online)->current(), nullptr);

  // Dirty a redirected range: the bytes land in the region file only.
  io::MpiSim mpi(1);
  auto file = io::MpiFile::open(pfs, mpi, "dyn");
  ASSERT_TRUE(file.is_ok());
  file->set_interceptor(online->get());
  std::vector<std::uint8_t> payload(4_KiB, 0xB7);
  ASSERT_TRUE(file->write_at(0, 16, payload.data(), payload.size()).is_ok());

  // The next adaptation's fold-back crashes after journaling the plan.
  *crash_on = true;
  auto failed = (*online)->adapt_now();
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.code(), common::ErrorCode::kIoError);

  // Restart: recovery re-runs the idempotent fold-back and drops regions.
  fault::MigrationJournal journal;
  ASSERT_TRUE(journal.open(journal_path).is_ok());
  EXPECT_EQ(journal.phase(), fault::JournalPhase::kFoldback);
  auto recovery = core::recover_migration(pfs, journal);
  ASSERT_TRUE(recovery.is_ok()) << recovery.status().to_string();
  EXPECT_EQ(recovery->action, core::RecoveryAction::kFoldedBack);
  EXPECT_GT(recovery->regions_removed, 0u);
  EXPECT_FALSE(recovery->has_drt);

  // Every region is gone and the dirty bytes survived the fold-back.
  for (const std::string& name : pfs.mds().list_files()) {
    EXPECT_EQ(name.find(".mha."), std::string::npos) << name;
  }
  EXPECT_EQ(*pfs.read_bytes(original, 16, 4_KiB, 0.0), payload);
  std::vector<std::uint8_t> head = *pfs.read_bytes(original, 0, 16, 0.0);
  for (common::ByteCount i = 0; i < 16; ++i) {
    EXPECT_EQ(head[i], layouts::populate_byte(i));
  }
  std::remove(journal_path.c_str());
}

// ------------------------------------------ satellites / negative paths ---

TEST(TryCancelProperty, RandomizedInterleavingsKeepQueueConsistent) {
  common::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 50; ++trial) {
    sim::ServerSim server(common::ServerKind::kHdd, slow_device(), sim::null_network());
    // Reference trace of the charges that survive cancellation.
    std::vector<std::pair<common::Seconds, common::ByteCount>> survivors;
    std::vector<sim::Charge> history;  // admissions, newest last
    bool newest_cancellable = false;   // no charge admitted since last cancel
    common::Seconds t = 0.0;
    for (int step = 0; step < 60; ++step) {
      const double dice = rng.next_double();
      if (dice < 0.55 || !newest_cancellable) {
        const common::ByteCount bytes = 1 + rng.next_below(8_KiB);
        const sim::Charge c = server.charge(OpType::kRead, bytes, t);
        EXPECT_GE(c.start, t);
        history.push_back(c);
        survivors.emplace_back(t, bytes);
        newest_cancellable = true;
        t += rng.next_double() * 0.5;
      } else if (dice < 0.8) {
        // Cancel the newest admission: must succeed exactly once; a repeat
        // of the same receipt must fail and change nothing.
        const sim::Charge c = history.back();
        history.pop_back();
        survivors.pop_back();
        EXPECT_TRUE(server.try_cancel(c));
        EXPECT_FALSE(server.try_cancel(c)) << "double cancel must fail";
        newest_cancellable = false;
      } else if (history.size() >= 2) {
        // Cancelling anything but the newest must fail and change nothing.
        const common::Seconds before = server.next_free();
        EXPECT_FALSE(server.try_cancel(history[history.size() - 2]));
        EXPECT_DOUBLE_EQ(server.next_free(), before);
      }
    }
    // The queue must equal a fresh replay of the surviving charges.
    sim::ServerSim replayed(common::ServerKind::kHdd, slow_device(), sim::null_network());
    for (const auto& [arrival, bytes] : survivors) {
      replayed.charge(OpType::kRead, bytes, arrival);
    }
    EXPECT_DOUBLE_EQ(server.next_free(), replayed.next_free()) << "trial " << trial;
    EXPECT_EQ(server.stats().sub_requests, replayed.stats().sub_requests);
    EXPECT_EQ(server.stats().bytes_read, replayed.stats().bytes_read);
  }
}

TEST(RedirectorNegative, LookupBeyondCoveredRangePassesThrough) {
  pfs::HybridPfs pfs(tiny_cluster(2, 1));
  auto original = *pfs.create_file("orig");
  ASSERT_TRUE(layouts::populate_file(pfs, original, 128_KiB).is_ok());

  core::Drt drt("orig");
  ASSERT_TRUE(drt.insert(core::DrtEntry{0, 64_KiB, "orig", 64_KiB}).is_ok());
  // Beyond every entry: the lookup must come back as one passthrough
  // segment, not crash or clamp.
  const auto segments = drt.lookup(1_MiB, 4_KiB);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_FALSE(segments[0].redirected);
  EXPECT_EQ(segments[0].target_offset, 1_MiB);
  EXPECT_EQ(segments[0].length, 4_KiB);

  // Reading far past EOF through the stack is defined: unwritten bytes are
  // zero in the content plane (sparse extent semantics).
  auto redirector = core::Redirector::create(pfs, drt);
  ASSERT_TRUE(redirector.is_ok());
  io::MpiSim mpi(1);
  auto file = io::MpiFile::open(pfs, mpi, "orig");
  ASSERT_TRUE(file.is_ok());
  file->set_interceptor(&*redirector);
  std::vector<std::uint8_t> buffer(4_KiB, 0xFF);
  ASSERT_TRUE(file->read_at(0, 1_MiB, buffer.data(), buffer.size()).is_ok());
  for (const std::uint8_t b : buffer) EXPECT_EQ(b, 0u);
}

TEST(MetadataNegative, TruncatedRstRestoresTheValidPrefix) {
  const std::string rst_path = test::temp_path("rst");
  {
    pfs::HybridPfs pfs(tiny_cluster(2, 1), rst_path);
    ASSERT_TRUE(pfs.create_file("first").is_ok());
    ASSERT_TRUE(pfs.create_file("second").is_ok());
  }
  // Tear the tail: the last appended record ("second") loses its framing.
  const auto size = std::filesystem::file_size(rst_path);
  ASSERT_GT(size, 3u);
  std::filesystem::resize_file(rst_path, size - 3);

  pfs::HybridPfs pfs(tiny_cluster(2, 1), rst_path);
  ASSERT_TRUE(pfs.mds().restore_from_rst().is_ok());
  EXPECT_TRUE(pfs.mds().exists("first"));
  EXPECT_FALSE(pfs.mds().exists("second"));
  std::remove(rst_path.c_str());
}

TEST(ReplayerNegative, VerificationMismatchPropagatesFailingOffset) {
  pfs::PfsOptions pfs_options;
  pfs_options.store_data = true;
  pfs::HybridPfs pfs(tiny_cluster(2, 1), pfs_options);
  trace::Trace trace;
  trace.file_name = "orig";
  trace.records.push_back(rec(0, OpType::kRead, 0, 4_KiB, 0.0));

  auto def = layouts::make_def();
  auto deployment = def->prepare(pfs, trace);
  ASSERT_TRUE(deployment.is_ok());

  // Corrupt one stored byte behind the replayer's back.
  auto file = pfs.open("orig");
  ASSERT_TRUE(file.is_ok());
  const std::uint8_t wrong = static_cast<std::uint8_t>(layouts::populate_byte(10) ^ 0xFF);
  pfs.data_server(0).store(*file, 10, &wrong, 1);

  workloads::ReplayOptions options;
  options.verify_data = true;
  auto result = workloads::replay(pfs, *deployment, trace, options);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), common::ErrorCode::kCorruption);
  EXPECT_NE(result.status().message().find("offset 10"), std::string::npos)
      << result.status().message();
}

TEST(FaultedReplay, SameSeedSameNumbers) {
  const trace::Trace trace = mini_trace("orig");
  auto run = [&](std::uint64_t seed) {
    fault::FaultInjector injector(seed);
    fault::RandomFaultConfig config;
    config.num_servers = 4;
    config.horizon = 2.0;
    config.crashes_per_server = 0.5;
    config.mean_outage = 0.05;
    config.transient_probability = 0.02;
    injector.add_random(config);
    fault::FaultContext context(injector);
    workloads::ReplayOptions options;
    options.verify_data = true;
    options.fault_context = &context;
    auto scheme = layouts::make_def();
    auto result = workloads::run_scheme(*scheme, tiny_cluster(2, 2), trace, options);
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    return std::make_pair(result.is_ok() ? result->makespan : -1.0, injector.metrics());
  };
  const auto [makespan_a, metrics_a] = run(99);
  const auto [makespan_b, metrics_b] = run(99);
  EXPECT_DOUBLE_EQ(makespan_a, makespan_b);
  EXPECT_EQ(metrics_a.transient_errors, metrics_b.transient_errors);
  EXPECT_EQ(metrics_a.retries, metrics_b.retries);
  EXPECT_DOUBLE_EQ(metrics_a.backoff_seconds, metrics_b.backoff_seconds);
  EXPECT_EQ(metrics_a.degraded_reads, metrics_b.degraded_reads);
  EXPECT_EQ(metrics_a.redo_logged, metrics_b.redo_logged);
}

}  // namespace
}  // namespace mha
