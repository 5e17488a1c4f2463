// Permanent server loss: membership epochs, the DRT replica column,
// heterogeneity-aware replication at placement, transparent failover
// reads/mirrored writes, and the throttled crash-safe rebuilder.
//
// The world is the smallest cluster that exercises every path: 2 HServers +
// 2 SServers, one original file reordered into a hot region (H-resident,
// replicated onto an SServer) and a cold region (S-resident, unreplicated).
// kill_server() wipes the dead server's stores, so every byte-identical
// assertion below proves the surviving copy really served the data.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/placer.hpp"
#include "core/redirector.hpp"
#include "core/reorganizer.hpp"
#include "io/mpi_file.hpp"
#include "layouts/scheme.hpp"
#include "repair/membership.hpp"
#include "repair/rebuilder.hpp"
#include "test_paths.hpp"
#include "workloads/replayer.hpp"

namespace mha {
namespace {

using common::OpType;
using namespace common::literals;

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

sim::ClusterConfig tiny_cluster() {
  sim::ClusterConfig config;
  config.num_hservers = 2;
  config.num_sservers = 2;
  config.hdd = slow_device();
  config.ssd = fast_device();
  config.network = sim::null_network();
  return config;
}

std::vector<std::uint8_t> pattern(common::Offset offset, common::ByteCount size) {
  std::vector<std::uint8_t> out(size);
  layouts::populate_fill(offset, out.data(), size);
  return out;
}

// ------------------------------------------------------- membership ------

TEST(Membership, EpochsAndTransitions) {
  repair::Membership m(4);
  EXPECT_EQ(m.epoch(), 0u);
  EXPECT_EQ(m.dead_count(), 0u);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(m.state(s), repair::ServerState::kUp);

  m.set_state(1, repair::ServerState::kSuspect, 1.0);
  EXPECT_EQ(m.epoch(), 1u);
  m.set_state(1, repair::ServerState::kSuspect, 2.0);  // no-op: no epoch bump
  EXPECT_EQ(m.epoch(), 1u);
  EXPECT_FALSE(m.dead(1));  // suspicion is not death

  m.kill(2, 3.0);
  EXPECT_EQ(m.epoch(), 2u);
  EXPECT_TRUE(m.dead(2));
  EXPECT_EQ(m.dead_count(), 1u);

  // A dead server may flip to kRebuilding and back, but never revives.
  m.set_state(2, repair::ServerState::kRebuilding, 4.0);
  EXPECT_TRUE(m.dead(2));
  EXPECT_EQ(m.dead_count(), 1u);
  m.set_state(2, repair::ServerState::kUp, 5.0);
  EXPECT_EQ(m.state(2), repair::ServerState::kRebuilding);
  m.set_state(2, repair::ServerState::kDead, 6.0);
  EXPECT_EQ(m.state(2), repair::ServerState::kDead);

  ASSERT_FALSE(m.events().empty());
  const repair::MembershipEvent& first = m.events().front();
  EXPECT_EQ(first.server, 1u);
  EXPECT_EQ(first.to, repair::ServerState::kSuspect);
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_FALSE(m.table().empty());
}

TEST(Membership, KillRegistersUnboundedCrashWindow) {
  fault::FaultInjector injector;
  repair::Membership m(4);
  m.kill(3, 2.0, &injector);
  // Schedulers and look-ahead see the loss as a crash window that never
  // closes.
  EXPECT_TRUE(injector.offline(3, 2.5));
  EXPECT_TRUE(injector.offline(3, 1.0e12));
  EXPECT_FALSE(injector.offline(3, 1.0));
}

TEST(Membership, ObserveGuardPromotesBreakerVerdicts) {
  guard::OverloadGuard guard(4);
  // Saturate server 1's outcome window with failures: rate 1.0 >= 0.5 opens.
  for (int i = 0; i < 16; ++i) guard.record_server(1, 0.01 * i, false);
  ASSERT_EQ(guard.breaker_state(1), guard::BreakerState::kOpen);

  repair::Membership m(4);
  m.kill(2, 0.5);
  m.observe_guard(guard, 1.0);
  EXPECT_EQ(m.state(1), repair::ServerState::kSuspect);
  EXPECT_EQ(m.state(0), repair::ServerState::kUp);
  EXPECT_TRUE(m.dead(2));  // death is a fact; health opinions never touch it

  // A closed breaker clears suspicion back to kUp.
  guard::OverloadGuard healthy(4);
  m.observe_guard(healthy, 2.0);
  EXPECT_EQ(m.state(1), repair::ServerState::kUp);
  EXPECT_TRUE(m.dead(2));
}

// -------------------------------------------------- DRT replica column ---

TEST(DrtReplica, ColumnRoundTripAndRetarget) {
  core::Drt drt("orig");
  ASSERT_TRUE(drt.insert(core::DrtEntry{0, 64_KiB, "r0", 0}).is_ok());
  ASSERT_TRUE(drt.insert(core::DrtEntry{64_KiB, 32_KiB, "r1", 0}).is_ok());
  ASSERT_TRUE(drt.set_replica("r0", "r0.rep").is_ok());

  // The column is stamped into every entry pointing at the region ...
  std::vector<core::DrtEntry> entries = drt.entries();
  EXPECT_EQ(entries[0].replica_file, "r0.rep");
  EXPECT_EQ(entries[1].replica_file, "");
  // ... and rides along in lookup segments as an interned id.
  std::vector<core::DrtSegment> segs = drt.lookup(0, 96_KiB);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_NE(segs[0].replica, core::kNoRegion);
  EXPECT_EQ(drt.region_name(segs[0].replica), "r0.rep");
  EXPECT_EQ(segs[1].replica, core::kNoRegion);

  // Persistence: the replica column survives a save/load round trip.
  const std::string path = test::temp_path("drt");
  {
    kv::KvStore store;
    ASSERT_TRUE(store.open(path).is_ok());
    ASSERT_TRUE(drt.save(store).is_ok());
    auto loaded = core::Drt::load(store, "orig");
    ASSERT_TRUE(loaded.is_ok());
    EXPECT_EQ(loaded->entries(), drt.entries());
    std::vector<core::DrtSegment> lsegs = loaded->lookup(0, 16_KiB);
    ASSERT_EQ(lsegs.size(), 1u);
    EXPECT_EQ(loaded->region_name(lsegs[0].replica), "r0.rep");
  }
  std::remove(path.c_str());

  // Retarget renames the interned name in place: entries follow, no rewrite.
  ASSERT_TRUE(drt.retarget_region("r0", "r0.rb1").is_ok());
  EXPECT_EQ(drt.entries()[0].r_file, "r0.rb1");
  EXPECT_EQ(drt.entries()[0].replica_file, "r0.rep");
  EXPECT_FALSE(drt.retarget_region("nope", "x").is_ok());
  EXPECT_FALSE(drt.retarget_region("r1", "r0.rep").is_ok());  // already interned
}

// ------------------------------------------------------ double loss ------

/// Every server's stored bytes of every file, in (server, file) order.
std::vector<std::vector<std::uint8_t>> server_images(const pfs::HybridPfs& pfs) {
  std::vector<std::vector<std::uint8_t>> images;
  for (std::size_t s = 0; s < pfs.num_servers(); ++s) {
    for (common::FileId f = 0; f < pfs.mds().file_count(); ++f) {
      const pfs::ExtentStore* store = pfs.data_server(s).store(f);
      images.push_back(store == nullptr ? std::vector<std::uint8_t>{}
                                        : store->read(0, store->end_offset()));
    }
  }
  return images;
}

TEST(FailoverWrite, DoubleLossRejectsWholeWriteBeforeStoring) {
  // A 64 KiB-uniform primary over 2H+2S whose replica lives on server 3
  // only.  Killing servers 0 and 3 leaves [64 KiB, 192 KiB) on live primary
  // stripes (servers 1 and 2) with no live replica to mirror onto: the
  // write must fail as a whole, before any server stores a byte — through
  // write() and through a one-request write_batch alike.
  pfs::HybridPfs pfs(tiny_cluster());
  const common::FileId primary = *pfs.create_file("primary");
  std::vector<common::ByteCount> widths = {0, 0, 0, 64_KiB};
  const common::FileId replica =
      *pfs.create_file("primary.rep", *pfs::StripeLayout::create(std::move(widths)));
  pfs.set_replica(primary, replica);
  const std::vector<std::uint8_t> before(256_KiB, 0xAA);
  ASSERT_TRUE(pfs.write(primary, 0, before, 0.0).is_ok());

  repair::Membership membership(pfs.num_servers());
  pfs.set_membership(&membership);
  repair::kill_server(membership, pfs, 0, 1.0);
  repair::kill_server(membership, pfs, 3, 1.0);
  const auto images = server_images(pfs);

  const std::vector<std::uint8_t> data(128_KiB, 0xBB);
  auto serial = pfs.write(primary, 64_KiB, data.data(), data.size(), 1.0);
  ASSERT_FALSE(serial.is_ok());
  EXPECT_EQ(serial.status().code(), common::ErrorCode::kUnavailable);
  EXPECT_EQ(server_images(pfs), images);

  pfs::BatchRequest req;
  req.file = primary;
  req.offset = 64_KiB;
  req.size = data.size();
  req.write_data = data.data();
  req.arrival = 1.0;
  pfs::BatchResultVec results;
  pfs.write_batch({&req, 1}, results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.to_string(), serial.status().to_string());
  EXPECT_EQ(server_images(pfs), images);
  EXPECT_EQ(pfs.file_size(primary), 256_KiB);
  EXPECT_EQ(pfs.failover_stats().unavailable, 2u);
}

// ------------------------------------------------------ repair world -----

/// 2H+2S cluster, 768 KiB original reordered into a hot H-resident region
/// r0 (replicated onto an SServer) and a cold S-resident region r1
/// (unreplicated).  Server indices: 0,1 = HServers; 2,3 = SServers.
class RepairTest : public ::testing::Test {
 protected:
  static constexpr common::ByteCount kR0 = 512_KiB;
  static constexpr common::ByteCount kR1 = 256_KiB;
  static constexpr common::ByteCount kExtent = kR0 + kR1;

  void SetUp() override { Build(); }
  void TearDown() override { std::remove(journal_path_.c_str()); }

  void Build() {
    journal_path_ = test::temp_path("rebuild");
    redirector_.reset();
    membership_.reset();
    pfs_ = std::make_unique<pfs::HybridPfs>(tiny_cluster());
    original_ = *pfs_->create_file("orig");
    ASSERT_TRUE(layouts::populate_file(*pfs_, original_, kExtent).is_ok());

    plan_ = core::ReorganizePlan{};
    plan_.drt = core::Drt("orig");
    core::Region r0;
    r0.name = "orig.mha.r0";
    r0.length = kR0;
    core::Region r1;
    r1.name = "orig.mha.r1";
    r1.length = kR1;
    plan_.regions = {r0, r1};
    ASSERT_TRUE(plan_.drt.insert(core::DrtEntry{0, kR0, r0.name, 0}).is_ok());
    ASSERT_TRUE(plan_.drt.insert(core::DrtEntry{kR0, kR1, r1.name, 0}).is_ok());

    core::ApplyOptions options;
    options.replicate_hot = true;
    // r0 hot on the HServers only; r1 cold on the SServers only.
    auto report = core::Placer::apply(
        *pfs_, plan_, {core::StripePair{64_KiB, 0}, core::StripePair{0, 96_KiB}},
        options);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    ASSERT_EQ(report->replicas_created, 1u);
    ASSERT_EQ(report->replica_pairs.size(), 1u);
    EXPECT_EQ(report->replica_pairs[0].first, "orig.mha.r0");
    EXPECT_EQ(report->replica_pairs[0].second, "orig.mha.r0.rep");
    for (const auto& [region, replica] : report->replica_pairs) {
      ASSERT_TRUE(plan_.drt.set_replica(region, replica).is_ok());
    }

    auto redirector = core::Redirector::create(*pfs_, plan_.drt);
    ASSERT_TRUE(redirector.is_ok());
    redirector_.emplace(std::move(redirector).take());

    membership_ = std::make_unique<repair::Membership>(pfs_->num_servers());
    pfs_->set_membership(membership_.get());

    region0_ = *pfs_->open("orig.mha.r0");
    region1_ = *pfs_->open("orig.mha.r1");
    replica0_ = *pfs_->open("orig.mha.r0.rep");
    pfs_->reset_stats();
    pfs_->reset_clocks();
  }

  /// Byte-identical full-file read through the redirector (the client view).
  void VerifyLogical(common::ByteCount write_end = 0) {
    io::MpiSim mpi(1);
    auto file = io::MpiFile::open(*pfs_, mpi, "orig");
    ASSERT_TRUE(file.is_ok());
    file->set_interceptor(&*redirector_);
    std::vector<std::uint8_t> buffer(kExtent);
    ASSERT_TRUE(file->read_at(0, 0, buffer.data(), buffer.size()).is_ok());
    std::vector<std::uint8_t> want = pattern(0, kExtent);
    for (common::ByteCount i = 0; i < write_end; ++i) {
      want[i] = workloads::replay_write_byte(i);
    }
    EXPECT_EQ(buffer, want);
  }

  std::string journal_path_;
  std::unique_ptr<pfs::HybridPfs> pfs_;
  std::unique_ptr<repair::Membership> membership_;
  std::optional<core::Redirector> redirector_;
  core::ReorganizePlan plan_;
  common::FileId original_ = common::kInvalidFileId;
  common::FileId region0_ = common::kInvalidFileId;
  common::FileId region1_ = common::kInvalidFileId;
  common::FileId replica0_ = common::kInvalidFileId;
};

TEST_F(RepairTest, PlacerReplicatesHotOntoSServer) {
  // The replica is a single-SServer file (cost-model argmin; equal load ties
  // to the lowest index = server 2) covering the region's full byte space.
  const pfs::StripeLayout& layout = pfs_->mds().info(replica0_).layout;
  EXPECT_EQ(layout.width(0), 0u);
  EXPECT_EQ(layout.width(1), 0u);
  EXPECT_GT(layout.width(2), 0u);
  EXPECT_EQ(layout.width(3), 0u);
  EXPECT_EQ(pfs_->file_size(replica0_), kR0);
  EXPECT_EQ(*pfs_->read_bytes(replica0_, 0, kR0, 0.0), pattern(0, kR0));
  // The redirector registered the (primary, replica) pair with the PFS.
  EXPECT_EQ(pfs_->replica_of(region0_), replica0_);
  EXPECT_EQ(pfs_->replica_of(region1_), common::kInvalidFileId);
}

TEST_F(RepairTest, KillWipesStores) {
  const common::ByteCount before = pfs_->stored_bytes(region0_);
  EXPECT_EQ(before, kR0);
  repair::kill_server(*membership_, *pfs_, 0, 1.0);
  // r0 stripes [64 KiB per 128 KiB cycle] on server 0 are really gone.
  EXPECT_EQ(pfs_->stored_bytes(region0_), kR0 / 2);
  EXPECT_TRUE(membership_->dead(0));
}

TEST_F(RepairTest, FailoverReadServesReplicatedRegion) {
  repair::kill_server(*membership_, *pfs_, 0, 1.0);
  // Direct region read: dead-server sub-reads retarget to the replica.
  std::vector<std::uint8_t> buffer(kR0);
  auto read = pfs_->read(region0_, 0, buffer.data(), kR0, 1.0);
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  EXPECT_EQ(buffer, pattern(0, kR0));
  const pfs::FailoverStats& stats = pfs_->failover_stats();
  EXPECT_GT(stats.failover_reads, 0u);
  EXPECT_EQ(stats.failover_bytes, kR0 / 2);  // server 0 held half the region
  EXPECT_EQ(stats.unavailable, 0u);
  // And the client view through the redirector stays byte-identical.
  VerifyLogical();
}

TEST_F(RepairTest, WritesMirrorToReplica) {
  std::vector<std::uint8_t> data(8_KiB);
  workloads::replay_write_fill(0, data.data(), data.size());
  ASSERT_TRUE(pfs_->write(region0_, 0, data.data(), data.size(), 0.0).is_ok());
  EXPECT_GT(pfs_->failover_stats().mirrored_writes, 0u);
  EXPECT_EQ(pfs_->failover_stats().mirror_bytes, 8_KiB);
  // The replica absorbed the write, so it can serve it after the loss.
  EXPECT_EQ(*pfs_->read_bytes(replica0_, 0, 8_KiB, 0.0), data);
  repair::kill_server(*membership_, *pfs_, 0, 1.0);
  std::vector<std::uint8_t> buffer(64_KiB);
  ASSERT_TRUE(pfs_->read(region0_, 0, buffer.data(), buffer.size(), 1.0).is_ok());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), buffer.begin()));
}

TEST_F(RepairTest, UnreplicatedRegionSurfacesUnavailable) {
  // r1 stripes: server 2 holds [0,96K)+[192K,256K), server 3 [96K,192K).
  repair::kill_server(*membership_, *pfs_, 3, 1.0);
  std::vector<std::uint8_t> buffer(64_KiB);
  auto dead = pfs_->read(region1_, 96_KiB, buffer.data(), 64_KiB, 1.0);
  ASSERT_FALSE(dead.is_ok());
  EXPECT_EQ(dead.status().code(), common::ErrorCode::kUnavailable);
  EXPECT_GT(pfs_->failover_stats().unavailable, 0u);
  // Ranges living entirely on survivors still read fine.
  auto live = pfs_->read(region1_, 0, buffer.data(), 64_KiB, 1.0);
  ASSERT_TRUE(live.is_ok());
  EXPECT_TRUE(std::equal(buffer.begin(), buffer.end(), pattern(kR0, 64_KiB).begin()));
}

TEST_F(RepairTest, BatchMatchesSerialUnderKill) {
  repair::kill_server(*membership_, *pfs_, 3, 1.0);

  // Serial reference: same requests, one at a time.
  struct Req {
    common::FileId file;
    common::Offset offset;
    common::ByteCount size;
  };
  const std::vector<Req> reqs = {{region0_, 0, 64_KiB},
                                 {region1_, 0, 32_KiB},
                                 {region1_, 96_KiB, 32_KiB},   // dead, unreplicated
                                 {region0_, 256_KiB, 64_KiB}};
  std::vector<common::Status> serial_status;
  std::vector<std::vector<std::uint8_t>> serial_bytes;
  for (const Req& r : reqs) {
    std::vector<std::uint8_t> buf(r.size, 0xEE);
    auto res = pfs_->read(r.file, r.offset, buf.data(), r.size, 1.0);
    serial_status.push_back(res.is_ok() ? common::Status::ok() : res.status());
    serial_bytes.push_back(std::move(buf));
  }
  ASSERT_FALSE(serial_status[2].is_ok());
  EXPECT_EQ(serial_status[2].code(), common::ErrorCode::kUnavailable);

  // Batched path: statuses and delivered bytes must match exactly; the
  // rejected request's buffer is untouched (translate-time rejection).
  std::vector<pfs::BatchRequest> batch;
  std::vector<std::vector<std::uint8_t>> batch_bytes;
  batch_bytes.reserve(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    batch_bytes.emplace_back(reqs[i].size, 0xEE);
    pfs::BatchRequest b;
    b.file = reqs[i].file;
    b.offset = reqs[i].offset;
    b.size = reqs[i].size;
    b.read_out = batch_bytes.back().data();
    b.arrival = 1.0;
    b.group = static_cast<std::uint32_t>(i);
    batch.push_back(b);
  }
  pfs::BatchResultVec results;
  pfs_->read_batch(batch, results);
  ASSERT_EQ(results.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(results[i].status.code(), serial_status[i].code());
    EXPECT_EQ(batch_bytes[i], serial_bytes[i]);
  }
  EXPECT_EQ(batch_bytes[2], std::vector<std::uint8_t>(32_KiB, 0xEE));
}

TEST_F(RepairTest, RebuildEndToEnd) {
  repair::kill_server(*membership_, *pfs_, 0, 1.0);
  const std::string new_name =
      "orig.mha.r0.rb" + std::to_string(membership_->epoch());

  repair::Rebuilder rebuilder(*pfs_, *redirector_, *membership_, journal_path_);
  ASSERT_TRUE(rebuilder.run_to_completion(1.0).is_ok());
  EXPECT_TRUE(rebuilder.done());

  const repair::RebuildReport& report = rebuilder.report();
  EXPECT_EQ(report.tasks, 1u);
  EXPECT_EQ(report.primaries_rebuilt, 1u);
  EXPECT_EQ(report.replicas_rebuilt, 0u);
  EXPECT_EQ(report.lost_regions, 0u);
  EXPECT_EQ(report.bytes_copied, kR0);
  EXPECT_FALSE(report.table().empty());

  // The region was re-homed onto the survivors and retargeted in the DRT.
  auto rebuilt = pfs_->open(new_name);
  ASSERT_TRUE(rebuilt.is_ok());
  const pfs::StripeLayout& layout = pfs_->mds().info(*rebuilt).layout;
  EXPECT_EQ(layout.width(0), 0u);
  EXPECT_GT(layout.width(1), 0u);
  std::vector<core::DrtEntry> entries = redirector_->drt().entries();
  EXPECT_EQ(entries[0].r_file, new_name);
  EXPECT_EQ(entries[0].replica_file, "orig.mha.r0.rep");
  // The refresh re-registered the replica pair under the new primary.
  EXPECT_EQ(pfs_->replica_of(*rebuilt), replica0_);

  // Post-rebuild reads touch no dead server: byte-identical with zero
  // failover traffic.
  pfs_->reset_failover_stats();
  VerifyLogical();
  EXPECT_EQ(pfs_->failover_stats().failover_reads, 0u);
  EXPECT_EQ(pfs_->failover_stats().unavailable, 0u);

  // Rebuild visibility: the dead server showed kRebuilding while tasks were
  // open and settled back to kDead at commit.
  EXPECT_EQ(membership_->state(0), repair::ServerState::kDead);
  bool saw_rebuilding = false;
  for (const repair::MembershipEvent& e : membership_->events()) {
    saw_rebuilding |= e.to == repair::ServerState::kRebuilding;
  }
  EXPECT_TRUE(saw_rebuilding);
}

TEST_F(RepairTest, RebuildReplacesLostReplicaAndCountsLostRegions) {
  // Server 2 holds r0's replica and part of unreplicated r1.
  repair::kill_server(*membership_, *pfs_, 2, 1.0);
  const std::string new_rep =
      "orig.mha.r0.rep" + std::to_string(membership_->epoch());

  repair::Rebuilder rebuilder(*pfs_, *redirector_, *membership_, journal_path_);
  ASSERT_TRUE(rebuilder.run_to_completion(1.0).is_ok());
  const repair::RebuildReport& report = rebuilder.report();
  EXPECT_EQ(report.tasks, 1u);
  EXPECT_EQ(report.replicas_rebuilt, 1u);
  EXPECT_EQ(report.primaries_rebuilt, 0u);
  EXPECT_EQ(report.lost_regions, 1u);  // r1: data on server 2, no copy

  // The fresh replica landed on the surviving SServer, re-filled from the
  // intact primary, and is registered for failover.
  auto replica = pfs_->open(new_rep);
  ASSERT_TRUE(replica.is_ok());
  const pfs::StripeLayout& layout = pfs_->mds().info(*replica).layout;
  EXPECT_GT(layout.width(3), 0u);
  EXPECT_EQ(*pfs_->read_bytes(*replica, 0, kR0, 2.0), pattern(0, kR0));
  EXPECT_EQ(pfs_->replica_of(region0_), *replica);

  // Losing an HServer now fails over to the new replica.
  repair::kill_server(*membership_, *pfs_, 0, 3.0);
  std::vector<std::uint8_t> buffer(kR0);
  ASSERT_TRUE(pfs_->read(region0_, 0, buffer.data(), kR0, 3.0).is_ok());
  EXPECT_EQ(buffer, pattern(0, kR0));
}

TEST_F(RepairTest, RebuildIsThrottledAndChargesItsJob) {
  repair::kill_server(*membership_, *pfs_, 0, 1.0);
  repair::RebuildOptions options;
  options.chunk = 64_KiB;
  options.rate = 64.0 * 1024.0;  // one chunk per virtual second
  options.job = 7;
  repair::Rebuilder rebuilder(*pfs_, *redirector_, *membership_, journal_path_,
                              options);
  ASSERT_TRUE(rebuilder.plan(1.0).is_ok());
  // One step at the plan instant admits exactly the chunks whose pacing
  // instant has arrived — the rebuild trickles instead of flooding.
  ASSERT_TRUE(rebuilder.step(1.0).is_ok());
  EXPECT_EQ(rebuilder.report().bytes_copied, 64_KiB);
  EXPECT_FALSE(rebuilder.done());
  EXPECT_GT(rebuilder.next_issue(), 1.0);
  // Far enough in the future every chunk is admitted and the switch runs.
  ASSERT_TRUE(rebuilder.step(1.0e9).is_ok());
  EXPECT_TRUE(rebuilder.done());
  EXPECT_EQ(rebuilder.report().bytes_copied, kR0);
  // The copy traffic was charged under the rebuild's QoS job.
  common::ByteCount job_bytes = 0;
  for (std::size_t s = 0; s < pfs_->num_servers(); ++s) {
    job_bytes += pfs_->data_server(s).sim().job_stats(7).bytes_total();
  }
  EXPECT_GT(job_bytes, 0u);
  VerifyLogical();
}

TEST_F(RepairTest, RebuildRecopiesRangesDirtiedByRacingWrites) {
  repair::kill_server(*membership_, *pfs_, 0, 1.0);
  repair::RebuildOptions options;
  options.chunk = 64_KiB;
  options.rate = 64.0 * 1024.0;
  repair::Rebuilder rebuilder(*pfs_, *redirector_, *membership_, journal_path_,
                              options);
  ASSERT_TRUE(rebuilder.plan(1.0).is_ok());
  ASSERT_TRUE(rebuilder.step(1.0).is_ok());  // copies only the first chunk
  ASSERT_FALSE(rebuilder.done());

  // A client write races the copy: it lands in the old primary (live
  // stripes) + replica and marks the DRT entry dirty.
  io::MpiSim mpi(1);
  auto file = io::MpiFile::open(*pfs_, mpi, "orig");
  ASSERT_TRUE(file.is_ok());
  file->set_interceptor(&*redirector_);
  std::vector<std::uint8_t> data(8_KiB);
  workloads::replay_write_fill(0, data.data(), data.size());
  ASSERT_TRUE(file->write_at(0, 0, data.data(), data.size()).is_ok());

  ASSERT_TRUE(rebuilder.step(1.0e9).is_ok());
  ASSERT_TRUE(rebuilder.done());
  // The switch re-copied the dirty entry at the quiescent instant, so the
  // rebuilt region carries the racing write, not the stale copy.
  EXPECT_EQ(rebuilder.report().bytes_recopied, kR0);
  VerifyLogical(/*write_end=*/8_KiB);
}

class RepairCrashTest : public RepairTest,
                        public ::testing::WithParamInterface<const char*> {};

TEST_P(RepairCrashTest, CrashedRebuildResumesToCompletion) {
  const std::string point = GetParam();
  repair::kill_server(*membership_, *pfs_, 0, 1.0);

  repair::RebuildOptions crashing;
  crashing.crash_at = [&](std::string_view p) { return p == point; };
  {
    repair::Rebuilder rebuilder(*pfs_, *redirector_, *membership_, journal_path_,
                                crashing);
    auto status = rebuilder.run_to_completion(1.0);
    ASSERT_FALSE(status.is_ok());
    EXPECT_EQ(status.code(), common::ErrorCode::kIoError);
  }

  // A fresh rebuilder over the same journal rolls the rebuild forward.
  repair::Rebuilder resumed(*pfs_, *redirector_, *membership_, journal_path_);
  ASSERT_TRUE(resumed.resume(2.0).is_ok());
  ASSERT_TRUE(resumed.run_to_completion(2.0).is_ok());
  EXPECT_TRUE(resumed.done());

  // Whatever the crash point, the end state is the same: retargeted DRT,
  // byte-identical client view with no dead-server traffic, clean journal.
  EXPECT_NE(redirector_->drt().entries()[0].r_file, "orig.mha.r0");
  pfs_->reset_failover_stats();
  VerifyLogical();
  EXPECT_EQ(pfs_->failover_stats().failover_reads, 0u);
  EXPECT_EQ(pfs_->failover_stats().unavailable, 0u);
  fault::MigrationJournal journal;
  ASSERT_TRUE(journal.open(journal_path_).is_ok());
  EXPECT_FALSE(journal.active());
  EXPECT_EQ(journal.phase(), fault::JournalPhase::kNone);
}

INSTANTIATE_TEST_SUITE_P(AllPoints, RepairCrashTest,
                         ::testing::Values("planned", "created", "copying",
                                           "copied-task-0", "copied",
                                           "switched-task-0", "switched"));

TEST_F(RepairTest, PlanRefusesUnresolvedJournalAndNoDeadServersIsNoop) {
  // No dead servers: plan() finds nothing and finishes immediately.
  {
    repair::Rebuilder rebuilder(*pfs_, *redirector_, *membership_, journal_path_);
    ASSERT_TRUE(rebuilder.run_to_completion(0.0).is_ok());
    EXPECT_TRUE(rebuilder.done());
    EXPECT_EQ(rebuilder.report().tasks, 0u);
  }
  // An unresolved journal must be resumed, not re-planned.
  repair::kill_server(*membership_, *pfs_, 0, 1.0);
  repair::RebuildOptions crashing;
  crashing.crash_at = [](std::string_view p) { return p == "copying"; };
  {
    repair::Rebuilder rebuilder(*pfs_, *redirector_, *membership_, journal_path_,
                                crashing);
    ASSERT_FALSE(rebuilder.run_to_completion(1.0).is_ok());
  }
  repair::Rebuilder fresh(*pfs_, *redirector_, *membership_, journal_path_);
  auto status = fresh.plan(2.0);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), common::ErrorCode::kFailedPrecondition);
}

}  // namespace
}  // namespace mha
