// End-to-end data integrity: checksummed extents, silent-fault injection,
// scrub + self-healing, checksummed KV/journal load paths, and the enriched
// replay-verification report.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/crc32.hpp"
#include "common/units.hpp"
#include "core/placer.hpp"
#include "core/redirector.hpp"
#include "core/scrubber.hpp"
#include "fault/context.hpp"
#include "fault/injector.hpp"
#include "fault/journal.hpp"
#include "io/mpi_file.hpp"
#include "kv/kvstore.hpp"
#include "layouts/scheme.hpp"
#include "test_paths.hpp"
#include "workloads/replayer.hpp"

namespace mha {
namespace {

using common::OpType;
using namespace common::literals;

constexpr common::ByteCount kChunk = pfs::ExtentStore::kChecksumChunk;

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

std::vector<std::uint8_t> pattern(common::Offset offset, common::ByteCount size) {
  std::vector<std::uint8_t> out(size);
  for (common::ByteCount i = 0; i < size; ++i) out[i] = layouts::populate_byte(offset + i);
  return out;
}

fault::FaultWindow silent(std::size_t server, fault::FaultKind kind, double probability = 1.0) {
  fault::FaultWindow w;
  w.server = server;
  w.kind = kind;
  w.start = 0.0;
  w.end = 1.0e9;
  w.probability = probability;
  return w;
}

// ----------------------------------------------- extent-store checksums ---

TEST(ExtentChecksums, CleanStoreVerifies) {
  pfs::ExtentStore store;
  const std::vector<std::uint8_t> data = pattern(0, 100_KiB);
  store.write(3, data.data(), data.size());  // straddles chunk 0/1, unaligned
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(store.verified_read(3, out.data(), out.size()).is_ok());
  EXPECT_EQ(out, data);
  EXPECT_TRUE(store.verify_range(0, store.end_offset()).is_ok());
  EXPECT_EQ(store.verify_chunks([](const pfs::ExtentStore::ChunkFault&) {}), 0u);
}

TEST(ExtentChecksums, BitRotIsDetectedAndNamed) {
  pfs::ExtentStore store;
  const std::vector<std::uint8_t> data = pattern(0, 2 * kChunk);
  store.write(0, data.data(), data.size());
  ASSERT_TRUE(store.corrupt_flip(kChunk + 17, 0x20));

  std::vector<std::uint8_t> out(data.size());
  const common::Status status = store.verified_read(0, out.data(), out.size());
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), common::ErrorCode::kCorruption);
  EXPECT_NE(status.message().find("stored crc"), std::string::npos) << status.message();

  // Only the rotten chunk is faulty; the clean one still verifies.
  std::vector<pfs::ExtentStore::ChunkFault> faults;
  store.verify_chunks([&](const pfs::ExtentStore::ChunkFault& f) { faults.push_back(f); });
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].offset, kChunk);
  EXPECT_NE(faults[0].expected_crc, faults[0].actual_crc);
  EXPECT_FALSE(faults[0].orphan);
  EXPECT_TRUE(store.verify_range(0, kChunk).is_ok());
  // The unverified read path still hands out the (damaged) bytes.
  EXPECT_EQ(store.read(kChunk + 17, 1)[0],
            static_cast<std::uint8_t>(data[kChunk + 17] ^ 0x20));
}

TEST(ExtentChecksums, RewriteHealsARottenChunk) {
  pfs::ExtentStore store;
  const std::vector<std::uint8_t> data = pattern(0, kChunk);
  store.write(0, data.data(), data.size());
  ASSERT_TRUE(store.corrupt_flip(5));
  ASSERT_FALSE(store.verify_range(0, kChunk).is_ok());
  store.write(0, data.data(), data.size());  // checksummed rewrite
  EXPECT_TRUE(store.verify_range(0, kChunk).is_ok());
}

TEST(ExtentChecksums, TornWriteChecksumsAsIfFull) {
  pfs::ExtentStore store;
  const std::vector<std::uint8_t> base = pattern(0, kChunk);
  store.write(0, base.data(), base.size());
  std::vector<std::uint8_t> payload(1024, 0xEE);
  store.write_torn(100, payload.data(), payload.size(), 300);  // tail lost
  // The prefix landed...
  EXPECT_EQ(store.read(100, 300), std::vector<std::uint8_t>(300, 0xEE));
  EXPECT_EQ(store.read(400, 1)[0], base[400]);  // ...the tail did not.
  // ...but the checksum claims the full write, so verification fails.
  const common::Status status = store.verify_range(0, kChunk);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), common::ErrorCode::kCorruption);
  // A torn write whose prefix IS the payload is just a write: consistent.
  pfs::ExtentStore whole;
  whole.write_torn(0, payload.data(), payload.size(), payload.size());
  EXPECT_TRUE(whole.verify_range(0, payload.size()).is_ok());
}

TEST(ExtentChecksums, MisdirectedWriteLeavesAnOrphanChunk) {
  pfs::ExtentStore store;
  std::vector<std::uint8_t> payload(128, 0xAB);
  store.write_unchecked(3 * kChunk + 64, payload.data(), payload.size());
  std::vector<pfs::ExtentStore::ChunkFault> faults;
  store.verify_chunks([&](const pfs::ExtentStore::ChunkFault& f) { faults.push_back(f); });
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_TRUE(faults[0].orphan);
  EXPECT_EQ(faults[0].offset, 3 * kChunk);
  // verified_read over the orphan names it too.
  std::vector<std::uint8_t> out(payload.size());
  const common::Status status = store.verified_read(3 * kChunk + 64, out.data(), out.size());
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("unchecksummed"), std::string::npos) << status.message();
}

TEST(ExtentChecksums, NthStoredByteWalksExtentsInOrder) {
  pfs::ExtentStore store;
  std::vector<std::uint8_t> a(10, 1), b(10, 2);
  store.write(0, a.data(), a.size());
  store.write(100, b.data(), b.size());
  EXPECT_EQ(*store.nth_stored_byte(0), 0u);
  EXPECT_EQ(*store.nth_stored_byte(9), 9u);
  EXPECT_EQ(*store.nth_stored_byte(10), 100u);
  EXPECT_EQ(*store.nth_stored_byte(19), 109u);
  EXPECT_FALSE(store.nth_stored_byte(20).is_ok());
}

// ------------------------------------------------- silent-fault drawing ---

TEST(SilentFaults, IsSilentClassifiesKinds) {
  EXPECT_TRUE(fault::is_silent(fault::FaultKind::kBitRot));
  EXPECT_TRUE(fault::is_silent(fault::FaultKind::kTornWrite));
  EXPECT_TRUE(fault::is_silent(fault::FaultKind::kMisdirectedWrite));
  EXPECT_FALSE(fault::is_silent(fault::FaultKind::kCrash));
  EXPECT_FALSE(fault::is_silent(fault::FaultKind::kBrownout));
  EXPECT_FALSE(fault::is_silent(fault::FaultKind::kTransient));
}

TEST(SilentFaults, DrawsAreSeedDeterministic) {
  auto draw_sequence = [](std::uint64_t seed) {
    fault::FaultInjector injector(seed);
    fault::RandomFaultConfig config;
    config.num_servers = 3;
    config.horizon = 10.0;
    config.bitrot_probability = 0.4;
    config.torn_probability = 0.3;
    config.misdirect_probability = 0.2;
    injector.add_random(config);
    std::vector<std::tuple<int, common::Offset, common::ByteCount, common::Offset>> seq;
    for (int i = 0; i < 200; ++i) {
      const sim::WriteFault f = injector.draw_write_fault(
          static_cast<std::size_t>(i) % 3, 0.05 * i, 4096u * i, 8192);
      seq.emplace_back(static_cast<int>(f.kind), f.bit_offset, f.torn_prefix,
                       f.misdirect_to);
    }
    return std::make_pair(seq, injector.metrics());
  };
  const auto [seq_a, metrics_a] = draw_sequence(42);
  const auto [seq_b, metrics_b] = draw_sequence(42);
  const auto [seq_c, metrics_c] = draw_sequence(43);
  EXPECT_EQ(seq_a, seq_b);
  EXPECT_NE(seq_a, seq_c);
  EXPECT_EQ(metrics_a.bitrot_injected, metrics_b.bitrot_injected);
  EXPECT_EQ(metrics_a.torn_injected, metrics_b.torn_injected);
  EXPECT_EQ(metrics_a.misdirected_injected, metrics_b.misdirected_injected);
  EXPECT_GT(metrics_a.bitrot_injected + metrics_a.torn_injected +
                metrics_a.misdirected_injected,
            0u);
}

TEST(SilentFaults, DrawWithoutSilentWindowsConsumesNoRandomness) {
  fault::FaultInjector injector(7);
  fault::FaultWindow crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.server = 0;
  crash.start = 0.0;
  crash.end = 1.0;
  injector.add(crash);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(injector.draw_write_fault(0, 0.5, 0, 4096).kind,
              sim::WriteFault::Kind::kNone);
  }
  // A twin injector that never drew at all has the same stream position.
  fault::FaultInjector twin(7);
  EXPECT_EQ(injector.draw_transient(0, 0.5), twin.draw_transient(0, 0.5));
}

/// End-to-end: a silent fault injected on the PFS write path is caught by
/// the checksummed read path with a typed corruption Status.
class SilentFaultPfsTest : public ::testing::Test {
 protected:
  void attach(fault::FaultKind kind) {
    pfs_ = std::make_unique<pfs::HybridPfs>(tiny_cluster(2, 1));
    file_ = *pfs_->create_file("f");
    ASSERT_TRUE(layouts::populate_file(*pfs_, file_, 256_KiB).is_ok());
    injector_ = std::make_unique<fault::FaultInjector>(11);
    for (std::size_t s = 0; s < pfs_->num_servers(); ++s) injector_->add(silent(s, kind));
    context_ = std::make_unique<fault::FaultContext>(*injector_);
    pfs_->set_fault_context(context_.get());
  }

  std::unique_ptr<pfs::HybridPfs> pfs_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::FaultContext> context_;
  common::FileId file_ = common::kInvalidFileId;
};

TEST_F(SilentFaultPfsTest, BitRotCaughtOnRead) {
  attach(fault::FaultKind::kBitRot);
  const std::vector<std::uint8_t> payload(64_KiB, 0x5A);
  auto w = pfs_->write(file_, 0, payload.data(), payload.size(), 0.0);
  ASSERT_TRUE(w.is_ok());
  EXPECT_GT(injector_->metrics().bitrot_injected, 0u);
  std::vector<std::uint8_t> out(payload.size());
  auto r = pfs_->read(file_, 0, out.data(), out.size(), w->completion);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), common::ErrorCode::kCorruption);
  EXPECT_GT(injector_->metrics().corruption_detected, 0u);
}

TEST_F(SilentFaultPfsTest, TornWriteCaughtOnRead) {
  attach(fault::FaultKind::kTornWrite);
  const std::vector<std::uint8_t> payload(64_KiB, 0x77);
  auto w = pfs_->write(file_, 0, payload.data(), payload.size(), 0.0);
  ASSERT_TRUE(w.is_ok());
  EXPECT_GT(injector_->metrics().torn_injected, 0u);
  std::vector<std::uint8_t> out(payload.size());
  auto r = pfs_->read(file_, 0, out.data(), out.size(), w->completion);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), common::ErrorCode::kCorruption);
}

TEST_F(SilentFaultPfsTest, MisdirectedWriteDamagesTheLandingSite) {
  attach(fault::FaultKind::kMisdirectedWrite);
  const std::vector<std::uint8_t> payload(16_KiB, 0x33);
  auto w = pfs_->write(file_, 0, payload.data(), payload.size(), 0.0);
  ASSERT_TRUE(w.is_ok());
  EXPECT_GT(injector_->metrics().misdirected_injected, 0u);
  // The payload landed 64 KiB past its target inside the populated file:
  // somewhere a checksummed chunk now holds foreign bytes.  A full-file
  // verification sweep must notice.
  std::size_t faulty = 0;
  for (std::size_t s = 0; s < pfs_->num_servers(); ++s) {
    const pfs::ExtentStore* store = pfs_->data_server(s).store(file_);
    if (store != nullptr) {
      faulty += store->verify_chunks([](const pfs::ExtentStore::ChunkFault&) {});
    }
  }
  EXPECT_GT(faulty, 0u);
}

// ------------------------------------------------------------- scrubber ---

class ScrubberTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pfs_ = std::make_unique<pfs::HybridPfs>(tiny_cluster(2, 1));
    original_ = *pfs_->create_file("orig");
    ASSERT_TRUE(layouts::populate_file(*pfs_, original_, 512_KiB).is_ok());

    // The DRT covers the whole file (two swapped halves), so every origin
    // chunk has a region replica and vice versa.
    plan_.drt = core::Drt("orig");
    core::Region region;
    region.name = "orig.mha.r0";
    region.length = 512_KiB;
    plan_.regions.push_back(region);
    ASSERT_TRUE(
        plan_.drt.insert(core::DrtEntry{0, 256_KiB, "orig.mha.r0", 256_KiB}).is_ok());
    ASSERT_TRUE(plan_.drt.insert(core::DrtEntry{256_KiB, 256_KiB, "orig.mha.r0", 0}).is_ok());
    auto report = core::Placer::apply(*pfs_, plan_, {core::StripePair{16_KiB, 48_KiB}});
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    region_ = *pfs_->open("orig.mha.r0");
  }

  /// Flips one stored bit of `file`'s image; returns the store it hit.
  pfs::ExtentStore* rot_first_byte(common::FileId file, common::ByteCount skip = 0) {
    for (std::size_t s = 0; s < pfs_->num_servers(); ++s) {
      pfs::ExtentStore* store = pfs_->data_server(s).mutable_store(file);
      if (store == nullptr) continue;
      auto offset = store->nth_stored_byte(skip);
      if (!offset.is_ok()) continue;
      EXPECT_TRUE(store->corrupt_flip(*offset, 0x40));
      return store;
    }
    ADD_FAILURE() << "no stored byte to rot";
    return nullptr;
  }

  core::Scrubber make_scrubber() {
    core::Scrubber scrubber(*pfs_);
    scrubber.attach_drt(&plan_.drt);
    scrubber.set_metrics(&metrics_);
    return scrubber;
  }

  std::unique_ptr<pfs::HybridPfs> pfs_;
  common::FileId original_ = common::kInvalidFileId;
  common::FileId region_ = common::kInvalidFileId;
  core::ReorganizePlan plan_;
  fault::FaultMetrics metrics_;
};

TEST_F(ScrubberTest, OriginCorruptionRepairsFromRegion) {
  pfs::ExtentStore* store = rot_first_byte(original_);
  ASSERT_NE(store, nullptr);
  ASSERT_FALSE(store->verify_range(0, store->end_offset()).is_ok());

  core::Scrubber scrubber = make_scrubber();
  auto report = scrubber.scrub_file("orig");
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->chunks_faulty, 1u);
  EXPECT_EQ(report->repaired, 1u);
  EXPECT_EQ(report->unrepairable, 0u);
  ASSERT_EQ(report->findings.size(), 1u);
  EXPECT_TRUE(report->findings[0].repaired);

  EXPECT_TRUE(store->verify_range(0, store->end_offset()).is_ok());
  EXPECT_EQ(*pfs_->read_bytes(original_, 0, 512_KiB, 0.0), pattern(0, 512_KiB));
  EXPECT_EQ(metrics_.corruption_detected, 1u);
  EXPECT_EQ(metrics_.corruption_repaired, 1u);
}

TEST_F(ScrubberTest, RegionCorruptionRepairsFromOrigin) {
  pfs::ExtentStore* store = rot_first_byte(region_);
  ASSERT_NE(store, nullptr);

  core::Scrubber scrubber = make_scrubber();
  auto report = scrubber.scrub_file("orig.mha.r0");
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->repaired, 1u);
  EXPECT_EQ(report->unrepairable, 0u);
  // The region again holds exactly its origin ranges' bytes.
  EXPECT_EQ(*pfs_->read_bytes(region_, 256_KiB, 256_KiB, 0.0), pattern(0, 256_KiB));
  EXPECT_EQ(*pfs_->read_bytes(region_, 0, 256_KiB, 0.0), pattern(256_KiB, 256_KiB));
}

TEST_F(ScrubberTest, DirtyRegionEntryIsHonestlyUnrepairable) {
  // A redirected overwrite of origin range [0, 256K) landed only in the
  // region: the origin copy of that entry is stale.
  plan_.drt.mark_dirty(0, 256_KiB);
  EXPECT_EQ(plan_.drt.dirty_entries(), 1u);
  core::Scrubber scrubber = make_scrubber();  // snapshots the dirty flags

  // The origin stays repairable regardless: the region is authoritative for
  // committed entries even when they are dirty.
  pfs::ExtentStore* origin_store = rot_first_byte(original_);
  ASSERT_NE(origin_store, nullptr);
  auto origin_report = scrubber.scrub_file("orig");
  ASSERT_TRUE(origin_report.is_ok());
  EXPECT_EQ(origin_report->repaired, 1u);

  // Corrupt the region at the physical home of region-logical 256 KiB — a
  // chunk that straddles the dirty run.
  const pfs::FileInfo& info = pfs_->mds().info(region_);
  pfs::StripeLayout::SubExtentVec subs;
  info.layout.map_extent(256_KiB, 1, subs);
  ASSERT_FALSE(subs.empty());
  pfs::ExtentStore* store = pfs_->data_server(subs[0].server).mutable_store(region_);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->corrupt_flip(subs[0].physical_offset, 0x08));

  auto report = scrubber.scrub_file("orig.mha.r0");
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->chunks_faulty, 1u);
  EXPECT_EQ(report->repaired, 0u);
  EXPECT_EQ(report->unrepairable, 1u);
  ASSERT_EQ(report->findings.size(), 1u);
  EXPECT_NE(report->findings[0].detail.find("overwritten since migration"), std::string::npos)
      << report->findings[0].detail;
  EXPECT_EQ(metrics_.corruption_unrepairable, 1u);
}

TEST_F(ScrubberTest, UncoveredFileIsDetectOnlyUnrepairable) {
  auto plain = *pfs_->create_file("plain");
  ASSERT_TRUE(layouts::populate_file(*pfs_, plain, 128_KiB).is_ok());
  pfs::ExtentStore* store = rot_first_byte(plain);
  ASSERT_NE(store, nullptr);

  core::Scrubber scrubber = make_scrubber();
  auto report = scrubber.scrub_file("plain");
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->chunks_faulty, 1u);
  EXPECT_EQ(report->unrepairable, 1u);
  ASSERT_EQ(report->findings.size(), 1u);
  EXPECT_NE(report->findings[0].detail.find("no reordering table"), std::string::npos)
      << report->findings[0].detail;
}

TEST_F(ScrubberTest, DetectOnlyPassRepairsNothing) {
  pfs::ExtentStore* store = rot_first_byte(original_);
  ASSERT_NE(store, nullptr);
  core::Scrubber scrubber = make_scrubber();
  core::ScrubOptions options;
  options.repair = false;
  auto report = scrubber.scrub_file("orig", options);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->chunks_faulty, 1u);
  EXPECT_EQ(report->repaired, 0u);
  EXPECT_FALSE(store->verify_range(0, store->end_offset()).is_ok());  // untouched
}

TEST_F(ScrubberTest, OrphanInRegionSlackIsEvictedToZeros) {
  pfs::ExtentStore* store = pfs_->data_server(0).mutable_store(region_);
  ASSERT_NE(store, nullptr);
  const common::Offset squat = store->end_offset() + 2 * kChunk;
  std::vector<std::uint8_t> payload(64, 0xDD);
  store->write_unchecked(squat, payload.data(), payload.size());

  core::Scrubber scrubber = make_scrubber();
  auto report = scrubber.scrub_file("orig.mha.r0");
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->chunks_faulty, 1u);
  EXPECT_EQ(report->repaired, 1u);
  ASSERT_EQ(report->findings.size(), 1u);
  EXPECT_TRUE(report->findings[0].orphan);
  // Evicted: the squatted range reads as zeros and verifies.
  EXPECT_TRUE(store->verify_range(squat, payload.size()).is_ok());
  EXPECT_EQ(store->read(squat, payload.size()),
            std::vector<std::uint8_t>(payload.size(), 0));
}

TEST_F(ScrubberTest, ScrubAllHealsEverythingReachableAndCountsPasses) {
  rot_first_byte(original_);
  // Rot a region chunk too — one that is neither a repair source for the
  // origin's rotten chunk nor repaired *from* it (region-logical 80 KiB maps
  // to origin 336 KiB, far from origin chunk 0), so both heal in one pass.
  {
    const pfs::FileInfo& info = pfs_->mds().info(region_);
    pfs::StripeLayout::SubExtentVec subs;
    info.layout.map_extent(80_KiB, 1, subs);
    ASSERT_FALSE(subs.empty());
    pfs::ExtentStore* store = pfs_->data_server(subs[0].server).mutable_store(region_);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->corrupt_flip(subs[0].physical_offset, 0x10));
  }
  auto plain = *pfs_->create_file("plain");
  ASSERT_TRUE(layouts::populate_file(*pfs_, plain, 64_KiB).is_ok());
  rot_first_byte(plain);

  core::Scrubber scrubber = make_scrubber();
  auto report = scrubber.scrub_all();
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->chunks_faulty, 3u);
  EXPECT_EQ(report->repaired, 2u);      // origin + region
  EXPECT_EQ(report->unrepairable, 1u);  // plain has no replica
  EXPECT_EQ(metrics_.scrub_passes, 1u);

  // A second pass re-detects only the unrepairable chunk — and both passes
  // report deterministically.
  auto second = scrubber.scrub_all();
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second->chunks_faulty, 1u);
  EXPECT_EQ(second->repaired, 0u);
  EXPECT_EQ(second->unrepairable, 1u);
  EXPECT_EQ(metrics_.scrub_passes, 2u);
}

TEST_F(ScrubberTest, RedirectorLocateNamesTheServingFile) {
  auto redirector = core::Redirector::create(*pfs_, plan_.drt);
  ASSERT_TRUE(redirector.is_ok());
  EXPECT_NE(redirector->locate(10).find("region orig.mha.r0"), std::string::npos)
      << redirector->locate(10);
  EXPECT_NE(redirector->locate(600_KiB).find("passthrough"), std::string::npos)
      << redirector->locate(600_KiB);
}

TEST_F(ScrubberTest, InterceptedWritesMarkDrtEntriesDirty) {
  auto redirector = core::Redirector::create(*pfs_, plan_.drt);
  ASSERT_TRUE(redirector.is_ok());
  EXPECT_EQ(redirector->drt().dirty_entries(), 0u);
  io::MpiSim mpi(1);
  auto file = io::MpiFile::open(*pfs_, mpi, "orig");
  ASSERT_TRUE(file.is_ok());
  file->set_interceptor(&*redirector);
  std::vector<std::uint8_t> payload(4_KiB, 0x9C);
  ASSERT_TRUE(file->write_at(0, 300_KiB, payload.data(), payload.size()).is_ok());
  EXPECT_EQ(redirector->drt().dirty_entries(), 1u);  // only entry [256K, 512K)
}

// ------------------------------------------------ kv / journal integrity ---

TEST(KvIntegrity, CleanLoadReportAndVerify) {
  const std::string path = test::temp_path("kv_clean");
  {
    kv::KvStore store;
    ASSERT_TRUE(store.open(path).is_ok());
    EXPECT_EQ(store.last_load().records_applied, 0u);
    EXPECT_FALSE(store.last_load().tail_truncated);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(store.put("k" + std::to_string(i), std::string(100, 'v')).is_ok());
    }
    auto verify = store.verify_log();
    ASSERT_TRUE(verify.is_ok());
    EXPECT_TRUE(verify->clean());
    EXPECT_EQ(verify->records, 5u);
  }
  kv::KvStore reopened;
  ASSERT_TRUE(reopened.open(path).is_ok());
  EXPECT_EQ(reopened.last_load().records_applied, 5u);
  EXPECT_FALSE(reopened.last_load().tail_truncated);
  EXPECT_FALSE(reopened.last_load().crc_mismatch);
  EXPECT_EQ(reopened.last_load().torn_bytes, 0u);
  std::remove(path.c_str());
}

TEST(KvIntegrity, TornTailIsTruncatedAndReported) {
  const std::string path = test::temp_path("kv_torn");
  {
    kv::KvStore store;
    ASSERT_TRUE(store.open(path).is_ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(store.put("key" + std::to_string(i), std::string(64, 'x')).is_ok());
    }
  }
  const std::uintmax_t full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 10);  // tear the last record

  kv::KvStore store;
  ASSERT_TRUE(store.open(path).is_ok());
  EXPECT_EQ(store.last_load().records_applied, 3u);
  EXPECT_TRUE(store.last_load().tail_truncated);
  EXPECT_FALSE(store.last_load().crc_mismatch);  // short read, not a bad CRC
  EXPECT_GT(store.last_load().torn_bytes, 0u);
  EXPECT_FALSE(store.contains("key3"));
  // After the fold-back the on-disk log is clean again.
  auto verify = store.verify_log();
  ASSERT_TRUE(verify.is_ok());
  EXPECT_TRUE(verify->clean());
  EXPECT_EQ(verify->records, 3u);
  std::remove(path.c_str());
}

TEST(KvIntegrity, CorruptMiddleRecordStopsReplayWithCrcMismatch) {
  const std::string path = test::temp_path("kv_rot");
  long second_record_end = 0;
  {
    kv::KvStore store;
    ASSERT_TRUE(store.open(path).is_ok());
    ASSERT_TRUE(store.put("a", std::string(200, 'A')).is_ok());
    ASSERT_TRUE(store.put("b", std::string(200, 'B')).is_ok());
  }
  // Measure after close: the stream buffer is flushed, so this is exactly
  // the end of record "b" on disk.
  second_record_end = static_cast<long>(std::filesystem::file_size(path));
  {
    kv::KvStore store;
    ASSERT_TRUE(store.open(path).is_ok());
    ASSERT_TRUE(store.put("c", std::string(200, 'C')).is_ok());
  }
  {
    // Flip one payload byte inside record "b" (well before its end).
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    char byte = 0;
    f.seekg(second_record_end - 50);
    f.get(byte);
    f.seekp(second_record_end - 50);
    f.put(static_cast<char>(byte ^ 0x01));
  }
  kv::KvStore store;
  ASSERT_TRUE(store.open(path).is_ok());
  EXPECT_EQ(store.last_load().records_applied, 1u);  // only "a" survives
  EXPECT_TRUE(store.last_load().crc_mismatch);
  EXPECT_TRUE(store.last_load().tail_truncated);  // "b"+"c" dropped
  EXPECT_TRUE(store.contains("a"));
  EXPECT_FALSE(store.contains("b"));
  EXPECT_FALSE(store.contains("c"));
  std::remove(path.c_str());
}

TEST(KvIntegrity, VerifyLogCountsBadFramesWithoutMutating) {
  const std::string path = test::temp_path("kv_audit");
  kv::KvStore store;
  ASSERT_TRUE(store.open(path).is_ok());
  ASSERT_TRUE(store.put("a", std::string(200, 'A')).is_ok());
  ASSERT_TRUE(store.put("b", std::string(200, 'B')).is_ok());
  ASSERT_TRUE(store.sync().is_ok());
  {
    // Rot a payload byte of record "a" on disk, behind the open store's back.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char byte = 0;
    f.seekg(40);
    f.get(byte);
    f.seekp(40);
    f.put(static_cast<char>(byte ^ 0x80));
  }
  auto verify = store.verify_log();
  ASSERT_TRUE(verify.is_ok());
  EXPECT_EQ(verify->crc_failures, 1u);
  EXPECT_EQ(verify->records, 1u);
  EXPECT_FALSE(verify->clean());
  // The in-memory map is untouched by the audit.
  EXPECT_TRUE(store.contains("a"));
  EXPECT_TRUE(store.contains("b"));
  // The scrubber's KV sweep counts the damage into the fault ledger.
  fault::FaultMetrics metrics;
  pfs::HybridPfs pfs(tiny_cluster(1, 1));
  core::Scrubber scrubber(pfs);
  scrubber.set_metrics(&metrics);
  auto swept = scrubber.scrub_log(store);
  ASSERT_TRUE(swept.is_ok());
  EXPECT_EQ(metrics.corruption_detected, 1u);
  ASSERT_TRUE(store.close().is_ok());
  std::remove(path.c_str());
}

TEST(JournalIntegrity, TornJournalTailIsReportedThroughLoadReport) {
  const std::string path = test::temp_path("journal_torn");
  {
    fault::MigrationJournal journal;
    ASSERT_TRUE(journal.open(path).is_ok());
    ASSERT_TRUE(journal
                    .begin("orig", {fault::JournalRegion{"r0", {16_KiB, 48_KiB}}},
                           {fault::JournalEntry{0, 64_KiB, "r0", 0}})
                    .is_ok());
    ASSERT_TRUE(journal.set_phase(fault::JournalPhase::kRegionsCreated).is_ok());
  }
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 4);

  fault::MigrationJournal journal;
  ASSERT_TRUE(journal.open(path).is_ok());
  EXPECT_TRUE(journal.load_report().tail_truncated);
  EXPECT_GT(journal.load_report().torn_bytes, 0u);
  // The torn record was the kRegionsCreated stamp: the durable phase rules.
  EXPECT_EQ(journal.phase(), fault::JournalPhase::kPlanned);
  auto verify = journal.verify_log();
  ASSERT_TRUE(verify.is_ok());
  EXPECT_TRUE(verify->clean());
  std::remove(path.c_str());
}

// ---------------------------------------------------- metrics rendering ---

TEST(FaultMetricsTable, RendersSilentAndScrubCounters) {
  fault::FaultMetrics metrics;
  metrics.bitrot_injected = 3;
  metrics.torn_injected = 2;
  metrics.misdirected_injected = 1;
  metrics.corruption_detected = 6;
  metrics.corruption_repaired = 5;
  metrics.corruption_unrepairable = 1;
  metrics.scrub_passes = 4;
  metrics.torn_tails_truncated = 7;
  const std::string table = metrics.table();
  EXPECT_NE(table.find("silent:"), std::string::npos) << table;
  EXPECT_NE(table.find("scrub:"), std::string::npos) << table;
  EXPECT_NE(table.find("bit-rot=3"), std::string::npos) << table;
  EXPECT_NE(table.find("repaired=5"), std::string::npos) << table;
  EXPECT_NE(table.find("torn-tails=7"), std::string::npos) << table;
}

// ------------------------------------------------ replay mismatch report ---

TEST(ReplayVerification, MismatchReportNamesCrcsAndOriginOffset) {
  pfs::HybridPfs pfs(tiny_cluster(2, 2));
  trace::Trace trace;
  trace.file_name = "orig";
  for (int rank = 0; rank < 4; ++rank) {
    trace::TraceRecord r;
    r.rank = rank;
    r.op = OpType::kRead;
    r.offset = rank * 64_KiB;
    r.size = 64_KiB;
    r.t_start = 0.0;
    trace.records.push_back(r);
  }
  auto scheme = layouts::make_def();
  auto deployment = scheme->prepare(pfs, trace);
  ASSERT_TRUE(deployment.is_ok()) << deployment.status().to_string();

  // Damage one stored byte through the *checksummed* write path: the extent
  // CRCs stay valid, so only the replay shadow can catch it — with a report
  // that names the CRCs and the origin offset.
  auto id = pfs.open("orig");
  ASSERT_TRUE(id.is_ok());
  bool damaged = false;
  for (std::size_t s = 0; s < pfs.num_servers() && !damaged; ++s) {
    pfs::ExtentStore* store = pfs.data_server(s).mutable_store(*id);
    if (store == nullptr) continue;
    auto offset = store->nth_stored_byte(0);
    if (!offset.is_ok()) continue;
    std::uint8_t byte = store->read(*offset, 1)[0];
    byte = static_cast<std::uint8_t>(byte ^ 0xFF);
    store->write(*offset, &byte, 1);
    damaged = true;
  }
  ASSERT_TRUE(damaged);

  workloads::ReplayOptions options;
  options.verify_data = true;
  auto result = workloads::replay(pfs, *deployment, trace, options);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), common::ErrorCode::kCorruption);
  const std::string message = result.status().message();
  EXPECT_NE(message.find("expected crc"), std::string::npos) << message;
  EXPECT_NE(message.find("actual crc"), std::string::npos) << message;
  EXPECT_NE(message.find("origin offset"), std::string::npos) << message;
}

}  // namespace
}  // namespace mha
