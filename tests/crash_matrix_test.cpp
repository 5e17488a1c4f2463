// Exhaustive crash-point recovery matrix.
//
// Every journal phase x every injected crash site in the Placer and the
// fold-back path, each with and without a torn final journal record, plus a
// stranded KV-compaction temp file and the pipeline-driven deploy path.
// After every crash the recovery contract is the same:
//
//   * the file system ends in exactly one of two consistent states — fully
//     migrated (a DRT to serve from; every region byte matches its origin
//     range) or fully original (regions gone, original file pristine),
//   * recovery is idempotent: a second recover_migration is a no-op and the
//     byte-level state fingerprint is unchanged,
//   * a torn journal tail is detected (RecoveryReport::journal_torn) and
//     recovery acts on the last *durable* phase.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/page_cache.hpp"
#include "common/crc32.hpp"
#include "common/units.hpp"
#include "core/pipeline.hpp"
#include "core/recovery.hpp"
#include "core/redirector.hpp"
#include "fault/journal.hpp"
#include "io/mpi_file.hpp"
#include "layouts/scheme.hpp"
#include "repair/membership.hpp"
#include "repair/rebuilder.hpp"
#include "test_paths.hpp"

namespace mha {
namespace {

using common::OpType;
using namespace common::literals;

sim::DeviceProfile flat_device(const char* name, double startup, double per_byte) {
  sim::DeviceProfile d;
  d.name = name;
  d.startup_read = startup;
  d.startup_write = 2 * startup;
  d.per_byte_read = per_byte;
  d.per_byte_write = 2 * per_byte;
  d.queued_startup_factor = 1.0;
  return d;
}

sim::ClusterConfig tiny_cluster(std::size_t hservers = 2, std::size_t sservers = 1) {
  sim::ClusterConfig config;
  config.num_hservers = hservers;
  config.num_sservers = sservers;
  config.hdd = flat_device("hdd", 1.0, 0.001);
  config.ssd = flat_device("ssd", 0.1, 0.0001);
  config.network = sim::null_network();
  return config;
}

/// Byte-level fingerprint of the whole PFS: every file's logical content, in
/// name order.  Two identical fingerprints mean bitwise-identical state.
std::uint32_t state_fingerprint(pfs::HybridPfs& pfs) {
  std::uint32_t crc = 0;
  std::vector<std::string> names = pfs.mds().list_files();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    crc = common::crc32(name.data(), name.size(), crc);
    auto id = pfs.open(name);
    if (!id.is_ok()) continue;
    const common::ByteCount size = pfs.mds().info(*id).size;
    if (size == 0) continue;
    auto bytes = pfs.read_bytes(*id, 0, size, 0.0);
    if (bytes.is_ok()) crc = common::crc32(bytes->data(), bytes->size(), crc);
  }
  return crc;
}

/// Cuts `n` bytes off the journal file: a crash mid-append leaves exactly
/// this — a well-formed prefix ending in a partial record (records are at
/// least 13 bytes, so 4 always tears the last one without erasing it).
void tear_tail(const std::string& path, std::uintmax_t n = 4) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  ASSERT_FALSE(ec) << path;
  ASSERT_GT(size, n);
  std::filesystem::resize_file(path, size - n, ec);
  ASSERT_FALSE(ec) << path;
}

std::vector<std::uint8_t> pattern(common::Offset offset, common::ByteCount size) {
  std::vector<std::uint8_t> out(size);
  for (common::ByteCount i = 0; i < size; ++i) out[i] = layouts::populate_byte(offset + i);
  return out;
}

/// The post-recovery invariant: the PFS is in exactly one of the two
/// consistent states, whichever way recovery resolved the crash.
void expect_consistent(pfs::HybridPfs& pfs, const std::string& name,
                       common::ByteCount extent, const core::RecoveryReport& report) {
  if (report.has_drt) {
    // Fully migrated: the DRT covers the file (logical reads through a
    // rebuilt redirector reproduce every byte) and every region range holds
    // exactly its origin range's bytes.
    auto redirector = core::Redirector::create(pfs, report.drt);
    ASSERT_TRUE(redirector.is_ok()) << redirector.status().to_string();
    io::MpiSim mpi(1);
    auto file = io::MpiFile::open(pfs, mpi, name);
    ASSERT_TRUE(file.is_ok());
    file->set_interceptor(&*redirector);
    std::vector<std::uint8_t> buffer(extent);
    ASSERT_TRUE(file->read_at(0, 0, buffer.data(), buffer.size()).is_ok());
    EXPECT_EQ(buffer, pattern(0, extent));
    for (const core::DrtEntry& entry : report.drt.entries()) {
      auto region = pfs.open(entry.r_file);
      ASSERT_TRUE(region.is_ok()) << entry.r_file;
      EXPECT_EQ(*pfs.read_bytes(*region, entry.r_offset, entry.length, 0.0),
                pattern(entry.o_offset, entry.length))
          << entry.r_file << " @" << entry.r_offset;
    }
  } else {
    // Fully original: no region file survives and the original is pristine.
    for (const std::string& file : pfs.mds().list_files()) {
      EXPECT_EQ(file.find(".mha."), std::string::npos) << file;
    }
    auto id = pfs.open(name);
    ASSERT_TRUE(id.is_ok());
    EXPECT_EQ(*pfs.read_bytes(*id, 0, extent, 0.0), pattern(0, extent));
  }
}

// ------------------------------------------------ placement crash sites ---

struct Combo {
  const char* site;
  bool torn;
};

/// Prints the parameter by name: gtest's default dumps the object's bytes,
/// the site pointer included, so the listed test names would change from
/// build to build.
void PrintTo(const Combo& c, std::ostream* os) {
  *os << c.site << (c.torn ? "/torn" : "/clean");
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  std::string name = info.param.site;
  std::replace(name.begin(), name.end(), '-', '_');
  return name + (info.param.torn ? "_torn" : "_clean");
}

class CrashMatrix : public ::testing::TestWithParam<Combo> {
 protected:
  void SetUp() override {
    journal_path_ = test::temp_path("placer");
    pfs_ = std::make_unique<pfs::HybridPfs>(tiny_cluster(2, 1));
    original_ = *pfs_->create_file("orig");
    ASSERT_TRUE(layouts::populate_file(*pfs_, original_, 512_KiB).is_ok());

    plan_ = core::ReorganizePlan{};
    plan_.drt = core::Drt("orig");
    core::Region region;
    region.name = "orig.mha.r0";
    region.length = 192_KiB;
    plan_.regions.push_back(region);
    // Three entries so the matrix has a per-entry crash site between each.
    ASSERT_TRUE(plan_.drt.insert(core::DrtEntry{0, 64_KiB, "orig.mha.r0", 128_KiB}).is_ok());
    ASSERT_TRUE(plan_.drt.insert(core::DrtEntry{256_KiB, 64_KiB, "orig.mha.r0", 0}).is_ok());
    ASSERT_TRUE(
        plan_.drt.insert(core::DrtEntry{448_KiB, 64_KiB, "orig.mha.r0", 64_KiB}).is_ok());
  }
  void TearDown() override {
    std::remove(journal_path_.c_str());
    std::remove((journal_path_ + ".compact").c_str());
  }

  /// Journaled placement that aborts at `site`, leaving the journal exactly
  /// as a real crash there would.
  void crash_at(const char* site) {
    fault::MigrationJournal journal;
    ASSERT_TRUE(journal.open(journal_path_).is_ok());
    core::ApplyOptions options;
    options.journal = &journal;
    options.crash_at = [site](std::string_view p) { return p == site; };
    auto report =
        core::Placer::apply(*pfs_, plan_, {core::StripePair{16_KiB, 48_KiB}}, options);
    ASSERT_FALSE(report.is_ok());
    EXPECT_EQ(report.status().code(), common::ErrorCode::kIoError);
  }

  core::RecoveryReport recover() {
    fault::MigrationJournal journal;
    EXPECT_TRUE(journal.open(journal_path_).is_ok());
    auto recovery = core::recover_migration(*pfs_, journal);
    EXPECT_TRUE(recovery.is_ok()) << recovery.status().to_string();
    return recovery.is_ok() ? std::move(recovery).take() : core::RecoveryReport{};
  }

  std::string journal_path_;
  std::unique_ptr<pfs::HybridPfs> pfs_;
  common::FileId original_ = common::kInvalidFileId;
  core::ReorganizePlan plan_;
};

TEST_P(CrashMatrix, RecoversConsistentlyAndIdempotently) {
  const Combo combo = GetParam();
  crash_at(combo.site);
  if (combo.torn) tear_tail(journal_path_);

  const core::RecoveryReport report = recover();
  EXPECT_EQ(report.journal_torn, combo.torn);
  expect_consistent(*pfs_, "orig", 512_KiB, report);
  const std::uint32_t fingerprint = state_fingerprint(*pfs_);

  // Recovery twice from any phase: the second pass finds nothing to do and
  // the byte-level state is bitwise identical.
  const core::RecoveryReport again = recover();
  EXPECT_EQ(again.action, core::RecoveryAction::kNone);
  EXPECT_FALSE(again.journal_torn);
  EXPECT_EQ(state_fingerprint(*pfs_), fingerprint);
}

// Cache-vs-migration consistency, swept over the same crash matrix: a
// client holding cached (and dirty) pages runs the migration protocol —
// prepare flushes its dirty overlap, commit/recovery invalidates — and
// whatever state the crash resolved to, re-reads through the cache see
// exactly the recovered bytes and recovery stays idempotent underneath a
// repopulated cache.
TEST_P(CrashMatrix, CachedPagesSurviveMigrationConsistently) {
  const Combo combo = GetParam();
  io::MpiSim mpi(1);
  auto file = io::MpiFile::open(*pfs_, mpi, "orig");
  ASSERT_TRUE(file.is_ok());
  cache::CacheConfig config;
  config.page_size = 16_KiB;
  config.num_pages = 16;
  config.mode = cache::ConsistencyMode::kWriteBack;
  cache::CachedFile cached(*file, mpi, *pfs_, config);

  // Warm the cache over ranges the migration will move, and leave one page
  // dirty.  The dirty bytes equal the pattern, so both recovery outcomes
  // (fully migrated / fully original) remain pattern-consistent.
  std::vector<std::uint8_t> buffer(16_KiB);
  ASSERT_TRUE(cached.read_at(0, 0, buffer.data(), buffer.size()).is_ok());
  ASSERT_TRUE(cached.read_at(0, 256_KiB, buffer.data(), buffer.size()).is_ok());
  const std::vector<std::uint8_t> bytes = pattern(4_KiB, 4_KiB);
  ASSERT_TRUE(cached.write_at(0, 4_KiB, bytes.data(), bytes.size()).is_ok());
  ASSERT_TRUE(cached.is_dirty(0, 4_KiB));

  // Migration protocol, prepare side: the migrator must copy current bytes.
  auto prepared = cached.prepare_migration(0, 512_KiB, mpi.max_time());
  ASSERT_TRUE(prepared.is_ok()) << prepared.status().to_string();
  EXPECT_EQ(cached.dirty_pages(0), 0u);

  crash_at(combo.site);
  if (combo.torn) tear_tail(journal_path_);
  const core::RecoveryReport report = recover();
  expect_consistent(*pfs_, "orig", 512_KiB, report);
  const std::uint32_t fingerprint = state_fingerprint(*pfs_);

  // Migration protocol, commit/recovery side: the placement under the
  // cached pages changed (or was rolled back) — drop them.
  cached.invalidate(0, 512_KiB);
  EXPECT_FALSE(cached.is_cached(0, 0));
  EXPECT_FALSE(cached.is_cached(0, 256_KiB));
  EXPECT_GT(cached.metrics().invalidated_pages, 0u);

  // Re-reads route through whatever placement recovery landed on and must
  // reproduce the pattern byte-for-byte, repopulating the cache.
  auto redirector = core::Redirector::create(*pfs_, report.drt);
  if (report.has_drt) {
    ASSERT_TRUE(redirector.is_ok()) << redirector.status().to_string();
    file->set_interceptor(&*redirector);
  }
  for (const common::Offset offset : {common::Offset{0}, common::Offset{256_KiB}}) {
    ASSERT_TRUE(cached.read_at(0, offset, buffer.data(), buffer.size()).is_ok());
    EXPECT_EQ(buffer, pattern(offset, 16_KiB)) << "offset " << offset;
    EXPECT_TRUE(cached.is_cached(0, offset));
  }

  // Idempotence holds underneath the repopulated cache.
  const core::RecoveryReport again = recover();
  EXPECT_EQ(again.action, core::RecoveryAction::kNone);
  EXPECT_EQ(state_fingerprint(*pfs_), fingerprint);
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, CrashMatrix,
    ::testing::Values(Combo{"planned", false}, Combo{"planned", true},
                      Combo{"regions-created", false}, Combo{"regions-created", true},
                      Combo{"copying", false}, Combo{"copying", true},
                      Combo{"copied-entry-0", false}, Combo{"copied-entry-0", true},
                      Combo{"copied-entry-1", false}, Combo{"copied-entry-1", true},
                      Combo{"copied-entry-2", false}, Combo{"copied-entry-2", true},
                      Combo{"copied", false}, Combo{"copied", true},
                      Combo{"committed", false}, Combo{"committed", true}),
    combo_name);

// A crash during KV compaction strands "<journal>.compact"; the live log is
// authoritative and the leftover must not confuse recovery (with or without
// an additionally torn tail).
TEST_F(CrashMatrix, StrandedCompactionTempIsDiscardedOnRecovery) {
  crash_at("copying");
  {
    std::FILE* tmp = std::fopen((journal_path_ + ".compact").c_str(), "wb");
    ASSERT_NE(tmp, nullptr);
    std::fputs("half-written compaction garbage", tmp);
    std::fclose(tmp);
  }
  tear_tail(journal_path_);
  const core::RecoveryReport report = recover();
  EXPECT_TRUE(report.journal_torn);
  expect_consistent(*pfs_, "orig", 512_KiB, report);
  EXPECT_FALSE(std::filesystem::exists(journal_path_ + ".compact"));
}

// ------------------------------------------------- fold-back crash sites ---

class FoldbackCrashMatrix : public CrashMatrix {
 protected:
  /// Completes the journaled migration (journal left stamped kCommitted,
  /// exactly as OnlineMha finds it before a fold-back).
  void migrate() {
    fault::MigrationJournal journal;
    ASSERT_TRUE(journal.open(journal_path_).is_ok());
    core::ApplyOptions options;
    options.journal = &journal;
    auto report =
        core::Placer::apply(*pfs_, plan_, {core::StripePair{16_KiB, 48_KiB}}, options);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  }

  /// Journals a fold-back and "crashes" at `site` (foldback-begun: before
  /// any copy-back; foldback-copied: all copies done, regions not dropped).
  void crash_foldback(const std::string& site) {
    fault::MigrationJournal journal;
    ASSERT_TRUE(journal.open(journal_path_).is_ok());
    std::vector<fault::JournalRegion> regions;
    for (const core::Region& region : plan_.regions) {
      auto id = pfs_->open(region.name);
      ASSERT_TRUE(id.is_ok());
      regions.push_back(fault::JournalRegion{region.name, pfs_->mds().info(*id).layout.widths()});
    }
    std::vector<fault::JournalEntry> entries;
    for (const core::DrtEntry& entry : plan_.drt.entries()) {
      entries.push_back(
          fault::JournalEntry{entry.o_offset, entry.length, entry.r_file, entry.r_offset});
    }
    ASSERT_TRUE(journal.begin_foldback("orig", std::move(regions), std::move(entries)).is_ok());
    if (site == "foldback-copied") {
      common::Seconds clock = 0.0;
      for (const core::DrtEntry& entry : plan_.drt.entries()) {
        auto region = pfs_->open(entry.r_file);
        ASSERT_TRUE(region.is_ok());
        auto bytes = pfs_->read_bytes(*region, entry.r_offset, entry.length, clock);
        ASSERT_TRUE(bytes.is_ok());
        auto w = pfs_->write(original_, entry.o_offset, bytes->data(), entry.length, clock);
        ASSERT_TRUE(w.is_ok());
        clock = w->completion;
      }
    }
    // Crash: the journal closes with kFoldback still on disk.
  }
};

TEST_P(FoldbackCrashMatrix, RecoversConsistentlyAndIdempotently) {
  const Combo combo = GetParam();
  migrate();
  crash_foldback(combo.site);
  if (combo.torn) tear_tail(journal_path_);

  const core::RecoveryReport report = recover();
  EXPECT_EQ(report.journal_torn, combo.torn);
  if (!combo.torn) {
    // Clean tail: the fold-back re-runs and the regions are dropped.
    EXPECT_EQ(report.action, core::RecoveryAction::kFoldedBack);
    expect_consistent(*pfs_, "orig", 512_KiB, report);
  } else {
    // Torn tail: the kFoldback stamp was the record being appended, and
    // begin_foldback had already durably erased the previous (committed)
    // records — the journal replays as inert (kNone; plan records without a
    // phase stamp are dead by design).  Recovery touches nothing.  No byte
    // is lost: placement never erases origin data, so the original file
    // still answers every read; the regions merely linger as orphans until
    // the next migration's clear.
    EXPECT_EQ(report.action, core::RecoveryAction::kNone);
    EXPECT_EQ(*pfs_->read_bytes(original_, 0, 512_KiB, 0.0), pattern(0, 512_KiB));
  }
  const std::uint32_t fingerprint = state_fingerprint(*pfs_);

  const core::RecoveryReport again = recover();
  EXPECT_EQ(again.action, core::RecoveryAction::kNone);
  EXPECT_EQ(state_fingerprint(*pfs_), fingerprint);
}

INSTANTIATE_TEST_SUITE_P(AllSites, FoldbackCrashMatrix,
                         ::testing::Values(Combo{"foldback-begun", false},
                                           Combo{"foldback-begun", true},
                                           Combo{"foldback-copied", false},
                                           Combo{"foldback-copied", true}),
                         combo_name);

// --------------------------------------------- pipeline-driven crashes ---

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

/// Its own parameter type with gtest's default print (the object's bytes), so
/// these three cases keep the names they were first listed under.
struct DeployCombo : Combo {};

class PipelineCrashMatrix : public ::testing::TestWithParam<DeployCombo> {};

TEST_P(PipelineCrashMatrix, DeployCrashRecoversConsistently) {
  const Combo combo = GetParam();
  const std::string journal_path = test::temp_path("pipeline");
  pfs::HybridPfs pfs(tiny_cluster(2, 2));
  const trace::Trace trace = mini_trace("orig");
  const common::ByteCount extent = trace::extent_end(trace.records);
  auto original = *pfs.create_file("orig");
  ASSERT_TRUE(layouts::populate_file(pfs, original, extent).is_ok());

  core::MhaOptions options;
  options.journal_path = journal_path;
  options.crash_at = [&combo](std::string_view p) { return p == combo.site; };
  auto failed = core::MhaPipeline::deploy(pfs, trace, options);
  ASSERT_FALSE(failed.is_ok());
  if (combo.torn) tear_tail(journal_path);

  fault::MigrationJournal journal;
  ASSERT_TRUE(journal.open(journal_path).is_ok());
  auto recovery = core::recover_migration(pfs, journal);
  ASSERT_TRUE(recovery.is_ok()) << recovery.status().to_string();
  EXPECT_EQ(recovery->journal_torn, combo.torn);
  expect_consistent(pfs, "orig", extent, *recovery);
  std::remove(journal_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(DeploySites, PipelineCrashMatrix,
                         ::testing::Values(DeployCombo{{"copying", false}},
                                           DeployCombo{{"committed", false}},
                                           DeployCombo{{"committed", true}}),
                         [](const ::testing::TestParamInfo<DeployCombo>& info) {
                           return combo_name({info.param, info.index});
                         });

// --------------------------------------------------- rebuild crash sites ---

/// Rebuild-after-server-loss over the same discipline: every rebuilder crash
/// site, each with and without a torn final journal record.  The world is a
/// replicated 2H+2S cluster whose hot H-resident region loses HServer 0 (the
/// stores are wiped); whatever the crash left behind, the recovery contract
/// is that the client view stays byte-identical throughout, and after
/// resume (plus a fresh plan when the torn tail erased the whole plan —
/// nothing was mutated in that case) the region serves with no failover at
/// all and the journal is clean.
class RebuildCrashMatrix : public ::testing::TestWithParam<Combo> {
 protected:
  void SetUp() override {
    journal_path_ = test::temp_path("rebuild");
    pfs_ = std::make_unique<pfs::HybridPfs>(tiny_cluster(2, 2));
    auto original = pfs_->create_file("orig");
    ASSERT_TRUE(original.is_ok());
    ASSERT_TRUE(layouts::populate_file(*pfs_, *original, 256_KiB).is_ok());

    core::ReorganizePlan plan;
    plan.drt = core::Drt("orig");
    core::Region r0;
    r0.name = "orig.mha.r0";
    r0.length = 128_KiB;
    plan.regions.push_back(r0);
    ASSERT_TRUE(plan.drt.insert(core::DrtEntry{0, 128_KiB, r0.name, 0}).is_ok());
    core::ApplyOptions apply;
    apply.replicate_hot = true;
    auto report = core::Placer::apply(*pfs_, plan, {core::StripePair{32_KiB, 0}}, apply);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    for (const auto& [region, replica] : report->replica_pairs) {
      ASSERT_TRUE(plan.drt.set_replica(region, replica).is_ok());
    }
    auto redirector = core::Redirector::create(*pfs_, std::move(plan.drt));
    ASSERT_TRUE(redirector.is_ok());
    redirector_.emplace(std::move(redirector).take());
    membership_ = std::make_unique<repair::Membership>(pfs_->num_servers());
    pfs_->set_membership(membership_.get());
  }
  void TearDown() override { std::remove(journal_path_.c_str()); }

  /// Byte-identical client view; returns the failover reads the pass needed.
  std::uint64_t verify_and_count_failovers() {
    pfs_->reset_failover_stats();
    io::MpiSim mpi(1);
    auto file = io::MpiFile::open(*pfs_, mpi, "orig");
    EXPECT_TRUE(file.is_ok());
    file->set_interceptor(&*redirector_);
    std::vector<std::uint8_t> buffer(256_KiB);
    EXPECT_TRUE(file->read_at(0, 0, buffer.data(), buffer.size()).is_ok());
    EXPECT_EQ(buffer, pattern(0, 256_KiB));
    EXPECT_EQ(pfs_->failover_stats().unavailable, 0u);
    return pfs_->failover_stats().failover_reads;
  }

  std::string journal_path_;
  std::unique_ptr<pfs::HybridPfs> pfs_;
  std::optional<core::Redirector> redirector_;
  std::unique_ptr<repair::Membership> membership_;
};

TEST_P(RebuildCrashMatrix, ResumesToCleanCommit) {
  const Combo combo = GetParam();
  repair::kill_server(*membership_, *pfs_, 0, 1.0);
  {
    repair::RebuildOptions options;
    options.crash_at = [&combo](std::string_view p) { return p == combo.site; };
    repair::Rebuilder rebuilder(*pfs_, *redirector_, *membership_, journal_path_,
                                options);
    ASSERT_FALSE(rebuilder.run_to_completion(1.0).is_ok());
  }
  if (combo.torn) tear_tail(journal_path_);

  // Mid-crash, torn or not, the client view is already byte-identical (the
  // replica covers whatever the half-rebuilt state cannot serve).
  verify_and_count_failovers();

  {
    repair::Rebuilder resumed(*pfs_, *redirector_, *membership_, journal_path_);
    ASSERT_TRUE(resumed.resume(2.0).is_ok());
    ASSERT_TRUE(resumed.run_to_completion(2.0).is_ok());
    ASSERT_TRUE(resumed.done());
  }
  if (verify_and_count_failovers() > 0) {
    // The torn tail erased the whole journaled plan, so resume was an inert
    // no-op over an unmutated world; a fresh plan carries it to completion.
    ASSERT_TRUE(combo.torn);
    repair::Rebuilder replanned(*pfs_, *redirector_, *membership_, journal_path_);
    ASSERT_TRUE(replanned.run_to_completion(3.0).is_ok());
    ASSERT_TRUE(replanned.done());
  }

  // Committed: the region serves byte-identically with zero failover, the
  // journal is clean, and the state fingerprint survives a redundant resume.
  EXPECT_EQ(verify_and_count_failovers(), 0u);
  {
    fault::MigrationJournal journal;
    ASSERT_TRUE(journal.open(journal_path_).is_ok());
    EXPECT_FALSE(journal.active());
    EXPECT_EQ(journal.phase(), fault::JournalPhase::kNone);
  }
  const std::uint32_t fingerprint = state_fingerprint(*pfs_);
  repair::Rebuilder redundant(*pfs_, *redirector_, *membership_, journal_path_);
  EXPECT_TRUE(redundant.resume(4.0).is_ok());
  EXPECT_TRUE(redundant.done());
  EXPECT_EQ(state_fingerprint(*pfs_), fingerprint);
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, RebuildCrashMatrix,
    ::testing::Values(Combo{"planned", false}, Combo{"planned", true},
                      Combo{"created", false}, Combo{"created", true},
                      Combo{"copying", false}, Combo{"copying", true},
                      Combo{"copied-task-0", false}, Combo{"copied-task-0", true},
                      Combo{"copied", false}, Combo{"copied", true},
                      Combo{"switched-task-0", false}, Combo{"switched-task-0", true},
                      Combo{"switched", false}, Combo{"switched", true}),
    combo_name);

}  // namespace
}  // namespace mha
