// System-level property sweeps: conservation laws and invariants that must
// hold for EVERY (scheme x workload x cluster shape) combination.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/crc32.hpp"
#include "common/units.hpp"
#include "core/placer.hpp"
#include "core/recovery.hpp"
#include "fault/journal.hpp"
#include "layouts/scheme.hpp"
#include "test_paths.hpp"
#include "trace/analysis.hpp"
#include "workloads/apps.hpp"
#include "workloads/btio.hpp"
#include "workloads/hpio.hpp"
#include "workloads/ior.hpp"
#include "workloads/replayer.hpp"

namespace mha {
namespace {

using common::OpType;
using namespace mha::common::literals;

struct Combo {
  const char* scheme;
  const char* workload;
  std::size_t hservers;
  std::size_t sservers;
};

/// Prints the parameter by name: gtest's default dumps the object's bytes,
/// string pointers included, so the listed test names would change from
/// build to build.
void PrintTo(const Combo& c, std::ostream* os) {
  *os << c.scheme << '/' << c.workload << '/' << c.hservers << 'h' << c.sservers << 's';
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  return std::string(info.param.scheme) + "_" + info.param.workload + "_" +
         std::to_string(info.param.hservers) + "h" + std::to_string(info.param.sservers) +
         "s";
}

trace::Trace make_workload(const std::string& kind) {
  if (kind == "lanl") {
    workloads::LanlConfig config;
    config.num_procs = 4;
    config.loops = 24;
    return workloads::lanl_app2(config);
  }
  if (kind == "hpio") {
    workloads::HpioConfig config;
    config.num_procs = 4;
    config.region_count = 96;
    config.op = OpType::kRead;
    return workloads::hpio(config);
  }
  if (kind == "btio") {
    workloads::BtioConfig config;
    config.num_procs = 4;
    config.time_steps = 12;
    config.scale = 256;
    return workloads::btio(config);
  }
  workloads::IorMixedSizesConfig config;
  config.num_procs = 8;
  config.request_sizes = {16_KiB, 96_KiB};
  config.file_size = 12_MiB;
  config.op = OpType::kWrite;
  config.file_name = "prop.ior";
  return workloads::ior_mixed_sizes(config);
}

std::unique_ptr<layouts::LayoutScheme> make_scheme(const std::string& name) {
  if (name == "DEF") return layouts::make_def();
  if (name == "AAL") return layouts::make_aal();
  if (name == "HARL") return layouts::make_harl();
  return layouts::make_mha();
}

class SystemProperties : public ::testing::TestWithParam<Combo> {};

TEST_P(SystemProperties, ConservationAndTimingInvariants) {
  const Combo combo = GetParam();
  const trace::Trace workload = make_workload(combo.workload);
  sim::ClusterConfig cluster;
  cluster.num_hservers = combo.hservers;
  cluster.num_sservers = combo.sservers;

  pfs::PfsOptions pfs_options;
  pfs_options.store_data = false;
  pfs::HybridPfs pfs(cluster, pfs_options);
  auto scheme = make_scheme(combo.scheme);
  auto deployment = scheme->prepare(pfs, workload);
  ASSERT_TRUE(deployment.is_ok()) << deployment.status().to_string();

  auto result = workloads::replay(pfs, *deployment, workload, {});
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  // --- Conservation: every requested byte was served exactly once. ---
  common::ByteCount requested_reads = 0, requested_writes = 0;
  for (const auto& r : workload.records) {
    (r.op == OpType::kRead ? requested_reads : requested_writes) += r.size;
  }
  EXPECT_EQ(result->bytes_read, requested_reads);
  EXPECT_EQ(result->bytes_written, requested_writes);
  EXPECT_EQ(result->requests, workload.records.size());

  common::ByteCount served = 0;
  for (const auto& st : result->server_stats) served += st.bytes_total();
  EXPECT_EQ(served, requested_reads + requested_writes);

  // --- Timing sanity. ---
  EXPECT_GT(result->makespan, 0.0);
  double max_busy = 0.0;
  for (const auto& st : result->server_stats) max_busy = std::max(max_busy, st.busy_time);
  // The slowest server's busy time lower-bounds the makespan; queuing and
  // synchronisation can only add to it.
  EXPECT_GE(result->makespan, max_busy - 1e-9);
  // And the makespan cannot exceed fully-serial service of all requests.
  double total_busy = 0.0;
  for (const auto& st : result->server_stats) total_busy += st.busy_time;
  EXPECT_LE(result->makespan, total_busy + 1.0);

  // --- Replays are deterministic. ---
  pfs::HybridPfs pfs2(cluster, pfs_options);
  auto scheme2 = make_scheme(combo.scheme);
  auto deployment2 = scheme2->prepare(pfs2, workload);
  ASSERT_TRUE(deployment2.is_ok());
  auto result2 = workloads::replay(pfs2, *deployment2, workload, {});
  ASSERT_TRUE(result2.is_ok());
  EXPECT_DOUBLE_EQ(result->makespan, result2->makespan);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SystemProperties,
    ::testing::Values(
        Combo{"DEF", "ior", 6, 2}, Combo{"AAL", "ior", 6, 2}, Combo{"HARL", "ior", 6, 2},
        Combo{"MHA", "ior", 6, 2}, Combo{"DEF", "lanl", 6, 2}, Combo{"MHA", "lanl", 6, 2},
        Combo{"HARL", "lanl", 3, 1}, Combo{"MHA", "hpio", 6, 2}, Combo{"MHA", "hpio", 2, 2},
        Combo{"HARL", "btio", 6, 2}, Combo{"MHA", "btio", 4, 4}, Combo{"MHA", "ior", 7, 1},
        Combo{"MHA", "ior", 1, 7}, Combo{"AAL", "btio", 2, 6}),
    combo_name);

// Stripe pairs produced by every scheme must be realisable layouts: the MDS
// must never hold a layout whose widths are all zero or whose server count
// mismatches the cluster.
class LayoutRealisability : public ::testing::TestWithParam<Combo> {};

TEST_P(LayoutRealisability, AllMdsLayoutsAreValid) {
  const Combo combo = GetParam();
  const trace::Trace workload = make_workload(combo.workload);
  sim::ClusterConfig cluster;
  cluster.num_hservers = combo.hservers;
  cluster.num_sservers = combo.sservers;
  pfs::PfsOptions pfs_options;
  pfs_options.store_data = false;
  pfs::HybridPfs pfs(cluster, pfs_options);
  auto scheme = make_scheme(combo.scheme);
  auto deployment = scheme->prepare(pfs, workload);
  ASSERT_TRUE(deployment.is_ok());

  for (const std::string& name : pfs.mds().list_files()) {
    const auto& info = pfs.mds().info(*pfs.mds().lookup(name));
    EXPECT_EQ(info.layout.num_servers(), pfs.num_servers()) << name;
    EXPECT_GT(info.layout.cycle_width(), 0u) << name;
    // SServer widths never below HServer widths (s > h or uniform).
    const auto h_width = info.layout.width(0);
    const auto s_width = info.layout.width(pfs.num_servers() - 1);
    EXPECT_GE(s_width, h_width) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayoutRealisability,
    ::testing::Values(Combo{"MHA", "ior", 6, 2}, Combo{"HARL", "ior", 6, 2},
                      Combo{"MHA", "lanl", 2, 2}, Combo{"HARL", "btio", 5, 3},
                      Combo{"AAL", "hpio", 6, 2}),
    combo_name);

// Recovery is idempotent from EVERY crash point: running recover_migration
// a second time after a successful recovery must change nothing — same
// journal phase (kNone), bitwise-identical logical file contents.
class RecoveryIdempotence : public ::testing::TestWithParam<const char*> {
 protected:
  /// CRC over every file's name and full logical contents.
  static std::uint32_t fingerprint(pfs::HybridPfs& pfs) {
    std::uint32_t crc = 0;
    std::vector<std::string> names = pfs.mds().list_files();
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      crc ^= common::crc32(name.data(), name.size());
      const auto id = pfs.open(name);
      if (!id.is_ok()) continue;
      const auto& info = pfs.mds().info(*id);
      auto bytes = pfs.read_bytes(*id, 0, info.size, 0.0);
      if (bytes.is_ok()) crc ^= common::crc32(bytes->data(), bytes->size());
    }
    return crc;
  }
};

TEST_P(RecoveryIdempotence, SecondRecoveryIsANoOp) {
  const std::string site = GetParam();
  const std::string path = test::temp_path("prop_recovery");

  sim::ClusterConfig cluster;
  cluster.num_hservers = 2;
  cluster.num_sservers = 1;
  pfs::HybridPfs pfs(cluster);
  auto file = pfs.create_file("prop.dat");
  ASSERT_TRUE(file.is_ok());
  ASSERT_TRUE(layouts::populate_file(pfs, *file, 256_KiB).is_ok());

  core::ReorganizePlan plan;
  plan.drt = core::Drt("prop.dat");
  core::Region region;
  region.name = "prop.dat.mha.r0";
  region.length = 128_KiB;
  plan.regions.push_back(region);
  ASSERT_TRUE(plan.drt.insert(core::DrtEntry{0, 64_KiB, region.name, 64_KiB}).is_ok());
  ASSERT_TRUE(plan.drt.insert(core::DrtEntry{192_KiB, 64_KiB, region.name, 0}).is_ok());

  {
    fault::MigrationJournal journal;
    ASSERT_TRUE(journal.open(path).is_ok());
    core::ApplyOptions options;
    options.chunk = 32_KiB;
    options.journal = &journal;
    options.crash_at = [&](std::string_view point) { return point == site; };
    auto report =
        core::Placer::apply(pfs, plan, {core::StripePair{16_KiB, 48_KiB}}, options);
    ASSERT_FALSE(report.is_ok());
    EXPECT_EQ(report.status().code(), common::ErrorCode::kIoError);
  }

  fault::MigrationJournal journal;
  ASSERT_TRUE(journal.open(path).is_ok());
  auto first = core::recover_migration(pfs, journal);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_EQ(journal.phase(), fault::JournalPhase::kNone);
  const std::uint32_t after_first = fingerprint(pfs);

  auto second = core::recover_migration(pfs, journal);
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(second->action, core::RecoveryAction::kNone);
  EXPECT_FALSE(second->has_drt);
  EXPECT_FALSE(second->journal_torn);
  EXPECT_EQ(journal.phase(), fault::JournalPhase::kNone);
  EXPECT_EQ(fingerprint(pfs), after_first);

  // Whatever the outcome, the original file's passthrough truth survived:
  // either everything rolled back (bytes at original locations) or the
  // migration committed (region holds them, origin retains its copy — the
  // placer never erases origin bytes).
  EXPECT_EQ(*pfs.read_bytes(*file, 64_KiB, 128_KiB, 0.0),
            [] {
              std::vector<std::uint8_t> p(128_KiB);
              layouts::populate_fill(64_KiB, p.data(), p.size());
              return p;
            }());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllCrashSites, RecoveryIdempotence,
                         ::testing::Values("planned", "regions-created", "copying",
                                           "copied-entry-0", "copied-entry-1", "copied",
                                           "committed"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace mha
