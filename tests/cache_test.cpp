// Client-side page cache: consistency modes, CLOCK eviction with
// heterogeneity-aware retention, write-back coalescing (flush runs split
// exactly at translate boundaries and dispatch once per touched server),
// sequential read-ahead that refuses to cross a placement-class boundary
// without a fresh DRT lookup, flush-charge job attribution, and cached
// replay correctness/determinism over real workload shapes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/page_cache.hpp"
#include "common/units.hpp"
#include "core/placer.hpp"
#include "core/redirector.hpp"
#include "core/reorganizer.hpp"
#include "io/mpi_file.hpp"
#include "layouts/scheme.hpp"
#include "repair/membership.hpp"
#include "repair/rebuilder.hpp"
#include "workloads/apps.hpp"
#include "workloads/replayer.hpp"

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

std::vector<std::uint8_t> pattern(common::Offset offset, common::ByteCount size) {
  std::vector<std::uint8_t> out(size);
  for (common::ByteCount i = 0; i < size; ++i) out[i] = layouts::populate_byte(offset + i);
  return out;
}

std::vector<std::uint8_t> marked(common::ByteCount size, std::uint8_t mark) {
  return std::vector<std::uint8_t>(size, mark);
}

std::uint64_t total_sub_requests(const pfs::HybridPfs& pfs) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < pfs.num_servers(); ++i) {
    total += pfs.server_stats(i).sub_requests;
  }
  return total;
}

/// A migrated world with a placement-class boundary the cache can observe:
///   [0, 128K)     -> region r0, SServer-only stripe pair (h = 0)
///   [128K, 256K)  -> passthrough (original file, HServer-backed)
///   [256K, 384K)  -> region r1, HServer-backed stripe pair
///   [384K, 512K)  -> passthrough
struct CacheWorld {
  std::unique_ptr<pfs::HybridPfs> pfs;
  std::unique_ptr<core::Redirector> redirector;
  std::unique_ptr<io::MpiSim> mpi;
  std::unique_ptr<io::MpiFile> file;
  common::FileId original = common::kInvalidFileId;

  explicit CacheWorld(int world = 2, bool store_data = true) {
    pfs::PfsOptions options;
    options.store_data = store_data;
    pfs = std::make_unique<pfs::HybridPfs>(tiny_cluster(2, 1), options);
    original = *pfs->create_file("orig");
    EXPECT_TRUE(layouts::populate_file(*pfs, original, 512_KiB).is_ok());

    core::ReorganizePlan plan;
    plan.drt = core::Drt("orig");
    core::Region r0;
    r0.name = "orig.mha.r0";
    r0.length = 128_KiB;
    core::Region r1;
    r1.name = "orig.mha.r1";
    r1.length = 128_KiB;
    plan.regions.push_back(r0);
    plan.regions.push_back(r1);
    EXPECT_TRUE(plan.drt.insert(core::DrtEntry{0, 128_KiB, "orig.mha.r0", 0}).is_ok());
    EXPECT_TRUE(plan.drt.insert(core::DrtEntry{256_KiB, 128_KiB, "orig.mha.r1", 0}).is_ok());
    auto report = core::Placer::apply(
        *pfs, plan, {core::StripePair{0, 64_KiB}, core::StripePair{32_KiB, 32_KiB}});
    EXPECT_TRUE(report.is_ok()) << report.status().to_string();

    auto redir = core::Redirector::create(*pfs, std::move(plan.drt));
    EXPECT_TRUE(redir.is_ok());
    redirector = std::make_unique<core::Redirector>(std::move(*redir));
    mpi = std::make_unique<io::MpiSim>(world);
    auto f = io::MpiFile::open(*pfs, *mpi, "orig");
    EXPECT_TRUE(f.is_ok());
    file = std::make_unique<io::MpiFile>(std::move(*f));
    file->set_interceptor(redirector.get());
  }

  cache::CacheConfig small_config() const {
    cache::CacheConfig config;
    config.page_size = 16_KiB;
    config.num_pages = 16;
    config.mode = cache::ConsistencyMode::kWriteBack;
    return config;
  }
};

// ----------------------------------------------------------- hits/misses ---

TEST(Cache, ReadMissFillsThenHits) {
  CacheWorld w;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, w.small_config());

  std::vector<std::uint8_t> buf(4_KiB);
  auto miss = cached.read_at(0, 10_KiB, buf.data(), buf.size());
  ASSERT_TRUE(miss.is_ok()) << miss.status().to_string();
  EXPECT_EQ(buf, pattern(10_KiB, 4_KiB));
  EXPECT_EQ(cached.metrics().misses, 1u);
  EXPECT_EQ(cached.metrics().hits, 0u);
  EXPECT_TRUE(cached.is_cached(0, 10_KiB));

  const std::uint64_t before = total_sub_requests(*w.pfs);
  auto hit = cached.read_at(0, 8_KiB, buf.data(), buf.size());
  ASSERT_TRUE(hit.is_ok());
  EXPECT_EQ(buf, pattern(8_KiB, 4_KiB));
  EXPECT_EQ(cached.metrics().hits, 1u);
  // The hit never touched a server and cost only the hit overhead.
  EXPECT_EQ(total_sub_requests(*w.pfs), before);
  EXPECT_LT(hit->duration(), miss->duration());
  EXPECT_NEAR(hit->duration(), w.small_config().hit_overhead, 1e-10);
}

TEST(Cache, WholePageFillServesNeighbouringOffsets) {
  CacheWorld w;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, w.small_config());
  std::vector<std::uint8_t> buf(1_KiB);
  ASSERT_TRUE(cached.read_at(0, 0, buf.data(), buf.size()).is_ok());
  // The miss filled the whole 16 KiB page: the far end of the page hits.
  ASSERT_TRUE(cached.read_at(0, 15_KiB, buf.data(), buf.size()).is_ok());
  EXPECT_EQ(buf, pattern(15_KiB, 1_KiB));
  EXPECT_EQ(cached.metrics().hits, 1u);
  EXPECT_EQ(cached.metrics().misses, 1u);
}

// ------------------------------------------------------------ write-back ---

TEST(Cache, WriteBackAbsorbsUntilSyncFlush) {
  CacheWorld w;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, w.small_config());

  const auto bytes = marked(4_KiB, 0xEE);
  const std::uint64_t before = total_sub_requests(*w.pfs);
  ASSERT_TRUE(cached.write_at(0, 130_KiB, bytes.data(), bytes.size()).is_ok());
  EXPECT_EQ(cached.metrics().absorbed_writes, 1u);
  EXPECT_EQ(total_sub_requests(*w.pfs), before);  // nothing dispatched yet
  EXPECT_TRUE(cached.is_dirty(0, 130_KiB));
  // The underlying bytes are still the original pattern (write deferred).
  EXPECT_EQ(*w.pfs->read_bytes(w.original, 130_KiB, 4_KiB, 0.0), pattern(130_KiB, 4_KiB));

  auto flushed = cached.flush_all(w.mpi->max_time());
  ASSERT_TRUE(flushed.is_ok());
  EXPECT_FALSE(cached.is_dirty(0, 130_KiB));
  EXPECT_GT(total_sub_requests(*w.pfs), before);
  // [128K, 256K) is passthrough: the original file now holds the bytes.
  EXPECT_EQ(*w.pfs->read_bytes(w.original, 130_KiB, 4_KiB, 1e9), bytes);
  EXPECT_EQ(cached.metrics().flush_by_trigger[static_cast<int>(cache::FlushTrigger::kSync)],
            1u);
}

TEST(Cache, SmallWritesCoalesceIntoOnePageRun) {
  CacheWorld w;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, w.small_config());

  // The LANL shape in miniature: 16 B + (4 KiB - 16 B) + 4 KiB per loop,
  // sequential — 24 application writes, one contiguous 32 KiB dirty run.
  common::Offset off = 130_KiB;
  std::vector<std::uint8_t> bytes(8_KiB, 0xAB);
  for (int loop = 0; loop < 8; ++loop) {
    ASSERT_TRUE(cached.write_at(0, off, bytes.data(), 16).is_ok());
    ASSERT_TRUE(cached.write_at(0, off + 16, bytes.data(), 4_KiB - 16).is_ok());
    ASSERT_TRUE(cached.write_at(0, off + 4_KiB, bytes.data(), 4_KiB).is_ok());
    off += 8_KiB;
  }
  // Absorption is page-granular: 24 application writes, of which 4 cross a
  // 16 KiB page boundary -> 28 page-writes absorbed.
  EXPECT_EQ(cached.metrics().absorbed_writes, 28u);
  EXPECT_GT(cached.metrics().coalesced_writes, 0u);

  ASSERT_TRUE(cached.flush_all(w.mpi->max_time()).is_ok());
  // One flush event, one coalesced run: the 64 KiB dirty hull is contiguous
  // and single-job, so it leaves as a single bulk op.
  EXPECT_EQ(cached.metrics().flushes, 1u);
  EXPECT_EQ(cached.metrics().flush_ops, 1u);
  EXPECT_EQ(cached.metrics().flush_bytes, 64_KiB);
}

TEST(Cache, LanlPatternCutsServerOpsByOrderOfMagnitude) {
  // Same write sequence, uncached vs write-back cached, on identical
  // startup-dominated clusters (the LANL regime: per-op seek cost dwarfs the
  // byte cost): the cached run must dispatch >= 10x fewer server sub-ops and
  // finish at least 3x sooner (the acceptance shape ext_cache gates at full
  // scale).
  const auto run = [](bool use_cache) {
    sim::ClusterConfig cluster = tiny_cluster(2, 1);
    cluster.hdd = flat_device("hdd", 1.0, 1e-5);
    cluster.ssd = flat_device("ssd", 0.1, 1e-6);
    pfs::PfsOptions options;
    options.store_data = true;
    pfs::HybridPfs pfs(cluster, options);
    (void)*pfs.create_file("lanl");
    io::MpiSim mpi(1);
    auto file = io::MpiFile::open(pfs, mpi, "lanl");
    EXPECT_TRUE(file.is_ok());
    cache::CacheConfig config;
    config.page_size = 16_KiB;
    config.num_pages = 64;
    std::unique_ptr<cache::CachedFile> cached;
    if (use_cache) cached = std::make_unique<cache::CachedFile>(*file, mpi, pfs, config);

    std::vector<std::uint8_t> payload(8_KiB, 0x5A);
    common::Offset off = 0;
    for (int loop = 0; loop < 64; ++loop) {
      const common::ByteCount sizes[3] = {16, 4_KiB - 16, 4_KiB};
      for (const common::ByteCount size : sizes) {
        if (use_cache) {
          EXPECT_TRUE(cached->write_at(0, off, payload.data(), size).is_ok());
        } else {
          EXPECT_TRUE(file->write_at(0, off, payload.data(), size).is_ok());
        }
        off += size;
      }
    }
    common::Seconds makespan = mpi.max_time();
    if (use_cache) {
      auto tail = cached->flush_all(mpi.max_time());
      EXPECT_TRUE(tail.is_ok());
      makespan = std::max(makespan, *tail);
    }
    return std::pair<std::uint64_t, common::Seconds>(total_sub_requests(pfs), makespan);
  };

  const auto [uncached_ops, uncached_time] = run(false);
  const auto [cached_ops, cached_time] = run(true);
  EXPECT_GE(uncached_ops, 10 * cached_ops)
      << "uncached=" << uncached_ops << " cached=" << cached_ops;
  EXPECT_LT(cached_time, uncached_time / 3.0);
}

TEST(Cache, FlushSplitsExactlyAtTranslateBoundaries) {
  CacheWorld w;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, w.small_config());

  // Dirty a contiguous 64 KiB run straddling the region-to-passthrough
  // boundary at 128K: logically one bulk op, physically split by translate.
  const auto bytes = marked(16_KiB, 0xD7);
  for (common::Offset off = 96_KiB; off < 160_KiB; off += 16_KiB) {
    ASSERT_TRUE(cached.write_at(0, off, bytes.data(), bytes.size()).is_ok());
  }
  ASSERT_TRUE(cached.flush_all(w.mpi->max_time()).is_ok());
  EXPECT_EQ(cached.metrics().flush_ops, 1u);

  // [96K, 128K) landed in region r0 at region offsets [96K, 128K)...
  auto r0 = w.pfs->open("orig.mha.r0");
  ASSERT_TRUE(r0.is_ok());
  EXPECT_EQ(*w.pfs->read_bytes(*r0, 96_KiB, 32_KiB, 1e9), marked(32_KiB, 0xD7));
  // ...the passthrough half landed in the original file...
  EXPECT_EQ(*w.pfs->read_bytes(w.original, 128_KiB, 32_KiB, 1e9), marked(32_KiB, 0xD7));
  // ...and the original's covered range was NOT touched (exact split).
  EXPECT_EQ(*w.pfs->read_bytes(w.original, 96_KiB, 32_KiB, 1e9), pattern(96_KiB, 32_KiB));
}

TEST(Cache, CoalescedFlushDispatchesOncePerTouchedServer) {
  CacheWorld w;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, w.small_config());

  // 64 KiB contiguous dirty run inside region r1 (stripe pair h=32K,s=32K on
  // 2H+1S: region offsets [0,32K) -> H0, [32K,64K) -> H1).  Four dirty
  // 16 KiB pages must leave as ONE run costing exactly one sub-op per
  // touched server — per-page dispatch would cost four.
  const auto bytes = marked(16_KiB, 0x33);
  for (common::Offset off = 256_KiB; off < 320_KiB; off += 16_KiB) {
    ASSERT_TRUE(cached.write_at(0, off, bytes.data(), bytes.size()).is_ok());
  }
  const std::uint64_t before = total_sub_requests(*w.pfs);
  ASSERT_TRUE(cached.flush_all(w.mpi->max_time()).is_ok());
  EXPECT_EQ(total_sub_requests(*w.pfs) - before, 2u);  // H0 + H1, nothing else
}

TEST(Cache, FlushChargesTheDirtyingJob) {
  CacheWorld w;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, w.small_config());

  const auto bytes = marked(4_KiB, 0x44);
  ASSERT_TRUE(cached.write_at(0, 132_KiB, bytes.data(), bytes.size(), 3).is_ok());
  // Another tenant's read of the page triggers the (conflict) flush; the
  // write charge must follow the dirtier.
  std::vector<std::uint8_t> buf(16_KiB);
  ASSERT_TRUE(cached.read_at(0, 128_KiB, buf.data(), buf.size(), 1).is_ok());

  common::ByteCount job3 = 0, job1 = 0;
  for (std::size_t i = 0; i < w.pfs->num_servers(); ++i) {
    job3 += w.pfs->data_server(i).sim().job_stats(3).bytes_written;
    job1 += w.pfs->data_server(i).sim().job_stats(1).bytes_written;
  }
  EXPECT_EQ(job3, 4_KiB);
  EXPECT_EQ(job1, 0u);
}

TEST(Cache, FillsChargeTheReadingJob) {
  CacheWorld w;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, w.small_config());
  w.pfs->reset_stats();

  // Rank 0 (job 3) streams through region r0: a demand miss, then a second
  // sequential miss that arms read-ahead.  Rank 1 (job 1) misses once in the
  // passthrough range.  Every fill is billed to the job whose read caused
  // it, exactly as the same reads uncached would be.
  std::vector<std::uint8_t> buf(16_KiB);
  ASSERT_TRUE(cached.read_at(0, 0, buf.data(), buf.size(), 3).is_ok());
  ASSERT_TRUE(cached.read_at(0, 16_KiB, buf.data(), buf.size(), 3).is_ok());
  ASSERT_TRUE(cached.read_at(1, 400_KiB, buf.data(), buf.size(), 1).is_ok());
  ASSERT_EQ(cached.metrics().misses, 3u);
  ASSERT_GT(cached.metrics().prefetch_pages, 0u);

  common::ByteCount job0 = 0, job1 = 0, job3 = 0;
  for (std::size_t i = 0; i < w.pfs->num_servers(); ++i) {
    job0 += w.pfs->data_server(i).sim().job_stats(common::kDefaultJob).bytes_read;
    job1 += w.pfs->data_server(i).sim().job_stats(1).bytes_read;
    job3 += w.pfs->data_server(i).sim().job_stats(3).bytes_read;
  }
  EXPECT_EQ(job0, 0u);
  EXPECT_EQ(job1, 16_KiB);
  EXPECT_EQ(job3, (2 + cached.metrics().prefetch_pages) * 16_KiB);
}

TEST(Cache, ConflictingReadFlushesDirtyPageFirst) {
  CacheWorld w;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, w.small_config());

  // Write-allocate dirties only [4K, 8K) of the page; a read of the whole
  // page is not covered by the valid hull -> conflict flush, then refill.
  const auto bytes = marked(4_KiB, 0x88);
  ASSERT_TRUE(cached.write_at(0, 132_KiB, bytes.data(), bytes.size()).is_ok());
  ASSERT_TRUE(cached.is_dirty(0, 132_KiB));

  std::vector<std::uint8_t> buf(16_KiB);
  ASSERT_TRUE(cached.read_at(0, 128_KiB, buf.data(), buf.size()).is_ok());
  EXPECT_EQ(
      cached.metrics().flush_by_trigger[static_cast<int>(cache::FlushTrigger::kConflict)],
      1u);
  EXPECT_FALSE(cached.is_dirty(0, 132_KiB));
  // The refilled page shows the flushed write composed over the pattern.
  auto expect = pattern(128_KiB, 16_KiB);
  std::fill(expect.begin() + 4_KiB, expect.begin() + 8_KiB, 0x88);
  EXPECT_EQ(buf, expect);
}

TEST(Cache, PressureFlushDrainsHServerPagesFirst) {
  CacheWorld w;
  cache::CacheConfig config = w.small_config();
  config.num_pages = 8;
  config.dirty_high = 0.5;  // pressure beyond 4 dirty pages
  config.dirty_low = 0.25;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, config);

  const auto bytes = marked(16_KiB, 0x21);
  // Two SServer-backed dirty pages (region r0) ...
  ASSERT_TRUE(cached.write_at(0, 0, bytes.data(), bytes.size()).is_ok());
  ASSERT_TRUE(cached.write_at(0, 32_KiB, bytes.data(), bytes.size()).is_ok());
  // ... then HServer-backed dirty pages (region r1) until pressure trips.
  ASSERT_TRUE(cached.write_at(0, 256_KiB, bytes.data(), bytes.size()).is_ok());
  ASSERT_TRUE(cached.write_at(0, 288_KiB, bytes.data(), bytes.size()).is_ok());
  ASSERT_TRUE(cached.write_at(0, 320_KiB, bytes.data(), bytes.size()).is_ok());

  EXPECT_GT(
      cached.metrics().flush_by_trigger[static_cast<int>(cache::FlushTrigger::kPressure)],
      0u);
  // The HServer pages went first; the SServer pages are still absorbed.
  EXPECT_TRUE(cached.is_dirty(0, 0));
  EXPECT_TRUE(cached.is_dirty(0, 32_KiB));
  EXPECT_FALSE(cached.is_dirty(0, 256_KiB));
}

TEST(Cache, JobDeadlineTriggersFlush) {
  CacheWorld w;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, w.small_config());

  const auto bytes = marked(4_KiB, 0x66);
  ASSERT_TRUE(cached.write_at(0, 132_KiB, bytes.data(), bytes.size(), common::kDefaultJob,
                              5.0)
                  .is_ok());
  ASSERT_TRUE(cached.is_dirty(0, 132_KiB));

  // Nothing due yet: an access before the deadline does not flush.
  std::vector<std::uint8_t> buf(1_KiB);
  ASSERT_TRUE(cached.read_at(0, 400_KiB, buf.data(), buf.size()).is_ok());
  EXPECT_TRUE(cached.is_dirty(0, 132_KiB));

  // Past the deadline the next access drains the due page.
  w.mpi->advance(0, 6.0);
  ASSERT_TRUE(cached.read_at(0, 420_KiB, buf.data(), buf.size()).is_ok());
  EXPECT_FALSE(cached.is_dirty(0, 132_KiB));
  EXPECT_EQ(
      cached.metrics().flush_by_trigger[static_cast<int>(cache::FlushTrigger::kDeadline)],
      1u);
  EXPECT_EQ(*w.pfs->read_bytes(w.original, 132_KiB, 4_KiB, 1e9), bytes);
}

// ------------------------------------------------------ consistency modes ---

TEST(Cache, WriteThroughKeepsStoreCurrent) {
  CacheWorld w;
  cache::CacheConfig config = w.small_config();
  config.mode = cache::ConsistencyMode::kWriteThrough;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, config);

  std::vector<std::uint8_t> buf(16_KiB);
  ASSERT_TRUE(cached.read_at(0, 128_KiB, buf.data(), buf.size()).is_ok());
  const auto bytes = marked(4_KiB, 0x99);
  ASSERT_TRUE(cached.write_at(0, 130_KiB, bytes.data(), bytes.size()).is_ok());
  EXPECT_EQ(cached.metrics().write_throughs, 1u);
  EXPECT_EQ(cached.dirty_pages(0), 0u);
  // Store current immediately; the cached copy stayed coherent and hits.
  EXPECT_EQ(*w.pfs->read_bytes(w.original, 130_KiB, 4_KiB, 1e9), bytes);
  ASSERT_TRUE(cached.read_at(0, 130_KiB, buf.data(), 4_KiB).is_ok());
  EXPECT_EQ(std::vector<std::uint8_t>(buf.begin(), buf.begin() + 4_KiB), bytes);
  EXPECT_GT(cached.metrics().hits, 0u);
}

TEST(Cache, CloseToOpenFlushesAndInvalidatesAtEpoch) {
  CacheWorld w;
  cache::CacheConfig config = w.small_config();
  config.mode = cache::ConsistencyMode::kCloseToOpen;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, config);

  const auto bytes = marked(4_KiB, 0x77);
  ASSERT_TRUE(cached.write_at(0, 132_KiB, bytes.data(), bytes.size()).is_ok());
  EXPECT_TRUE(cached.is_cached(0, 132_KiB));

  auto epoch = cached.epoch_close();
  ASSERT_TRUE(epoch.is_ok());
  EXPECT_FALSE(cached.is_cached(0, 132_KiB));
  EXPECT_EQ(cached.dirty_pages(0), 0u);
  EXPECT_EQ(*w.pfs->read_bytes(w.original, 132_KiB, 4_KiB, 1e9), bytes);
  // Every rank observed the epoch's flush completion.
  EXPECT_GE(w.mpi->now(1), *epoch - 1e-12);
}

TEST(Cache, SharedPoolIsCoherentAcrossRanks) {
  CacheWorld w;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, w.small_config());
  const auto bytes = marked(4_KiB, 0x13);
  ASSERT_TRUE(cached.write_at(0, 132_KiB, bytes.data(), bytes.size()).is_ok());
  // Rank 1 reads rank 0's absorbed write out of the shared pool.
  std::vector<std::uint8_t> buf(4_KiB);
  ASSERT_TRUE(cached.read_at(1, 132_KiB, buf.data(), buf.size()).is_ok());
  EXPECT_EQ(buf, bytes);
  EXPECT_GT(cached.metrics().hits, 0u);
}

TEST(Cache, PerClientPoolsAreIndependent) {
  CacheWorld w;
  cache::CacheConfig config = w.small_config();
  config.shared = false;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, config);
  std::vector<std::uint8_t> buf(4_KiB);
  ASSERT_TRUE(cached.read_at(0, 128_KiB, buf.data(), buf.size()).is_ok());
  EXPECT_TRUE(cached.is_cached(0, 128_KiB));
  EXPECT_FALSE(cached.is_cached(1, 128_KiB));
}

// -------------------------------------------------- eviction & retention ---

TEST(Cache, ClockEvictionPreferentiallyRetainsHServerPages) {
  CacheWorld w;
  cache::CacheConfig config = w.small_config();
  config.num_pages = 4;
  config.readahead_pages = 0;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, config);

  std::vector<std::uint8_t> buf(1_KiB);
  // One HServer-backed page (region r1) ...
  ASSERT_TRUE(cached.read_at(0, 256_KiB, buf.data(), buf.size()).is_ok());
  ASSERT_EQ(cached.cached_class(0, 256_KiB), cache::PageClass::kHServer);
  // ... then stream SServer-backed pages (region r0) through the tiny pool:
  // five fills through the three remaining frames force two evictions.  A
  // boost-1 page can be swept out within two evictions; the HServer page's
  // boost of 3 guarantees it outlives them.
  for (common::Offset off = 0; off < 80_KiB; off += 16_KiB) {
    ASSERT_TRUE(cached.read_at(0, off, buf.data(), buf.size()).is_ok());
  }
  EXPECT_EQ(cached.metrics().evict_clean, 2u);
  EXPECT_TRUE(cached.is_cached(0, 256_KiB));
}

TEST(Cache, LargeRequestsBypassThePool) {
  CacheWorld w;
  cache::CacheConfig config = w.small_config();
  config.num_pages = 8;
  config.bypass_pages = 2;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, config);

  // Dirty a page inside the bypass range first: the bypass must flush it so
  // the uncached read sees the absorbed bytes.
  const auto bytes = marked(4_KiB, 0x55);
  ASSERT_TRUE(cached.write_at(0, 132_KiB, bytes.data(), bytes.size()).is_ok());

  std::vector<std::uint8_t> buf(64_KiB);
  ASSERT_TRUE(cached.read_at(0, 128_KiB, buf.data(), buf.size()).is_ok());
  EXPECT_EQ(cached.metrics().bypasses, 1u);
  auto expect = pattern(128_KiB, 64_KiB);
  std::fill(expect.begin() + 4_KiB, expect.begin() + 8_KiB, 0x55);
  EXPECT_EQ(buf, expect);
  EXPECT_FALSE(cached.is_cached(0, 128_KiB));
}

// ------------------------------------------------------------- read-ahead ---

TEST(Cache, SequentialReadsTriggerBatchedPrefetch) {
  CacheWorld w;
  cache::CacheConfig config = w.small_config();
  config.readahead_trigger = 2;
  config.readahead_pages = 4;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, config);

  std::vector<std::uint8_t> buf(16_KiB);
  // Two sequential reads arm the stream; the second issues one batched
  // prefetch of the next four pages.
  ASSERT_TRUE(cached.read_at(0, 384_KiB, buf.data(), buf.size()).is_ok());
  ASSERT_TRUE(cached.read_at(0, 400_KiB, buf.data(), buf.size()).is_ok());
  EXPECT_EQ(cached.metrics().prefetch_batches, 1u);
  EXPECT_EQ(cached.metrics().prefetch_pages, 4u);
  EXPECT_TRUE(cached.is_cached(0, 416_KiB));
  EXPECT_TRUE(cached.is_cached(0, 464_KiB));

  // The streamed pages now hit (some while their fill is still in flight).
  const std::uint64_t misses_before = cached.metrics().misses;
  for (common::Offset off = 416_KiB; off < 480_KiB; off += 16_KiB) {
    ASSERT_TRUE(cached.read_at(0, off, buf.data(), buf.size()).is_ok());
    EXPECT_EQ(buf, pattern(off, 16_KiB));
  }
  EXPECT_EQ(cached.metrics().misses, misses_before);
  EXPECT_GT(cached.metrics().prefetch_hits, 0u);
}

TEST(Cache, ReadAheadStopsAtPlacementClassBoundary) {
  CacheWorld w;
  cache::CacheConfig config = w.small_config();
  config.readahead_trigger = 2;
  config.readahead_pages = 6;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, config);

  std::vector<std::uint8_t> buf(8_KiB);
  // Stream inside region r0 (SServer class); the 6-page window would reach
  // past the class boundary at 128K into HServer-backed passthrough.  The
  // second read hits the page the first one filled, so every translation
  // between the two counter reads belongs to the read-ahead machinery.
  ASSERT_TRUE(cached.read_at(0, 64_KiB, buf.data(), buf.size()).is_ok());
  const std::size_t lookups_before = w.redirector->translations();
  ASSERT_TRUE(cached.read_at(0, 72_KiB, buf.data(), buf.size()).is_ok());

  // Prefetch covered the rest of r0 but refused to cross into the different
  // class...
  EXPECT_TRUE(cached.is_cached(0, 80_KiB));
  EXPECT_TRUE(cached.is_cached(0, 96_KiB));
  EXPECT_TRUE(cached.is_cached(0, 112_KiB));
  EXPECT_FALSE(cached.is_cached(0, 128_KiB));
  EXPECT_FALSE(cached.is_cached(0, 144_KiB));
  // ... and the stop decision came from fresh DRT lookups (the placement
  // probe translates; a stale cached guess would not).
  EXPECT_GT(w.redirector->translations(), lookups_before);

  // Same stream shape fully inside one class keeps prefetching freely:
  // passthrough [384K..) has no class change ahead.
  ASSERT_TRUE(cached.read_at(0, 384_KiB, buf.data(), buf.size()).is_ok());
  ASSERT_TRUE(cached.read_at(0, 392_KiB, buf.data(), buf.size()).is_ok());
  EXPECT_TRUE(cached.is_cached(0, 416_KiB));
  EXPECT_TRUE(cached.is_cached(0, 432_KiB));
}

// --------------------------------------------------------- cached replays ---

TEST(Cache, CachedReplayVerifiesAndMatchesUncachedBytes) {
  workloads::LanlConfig lanl;
  lanl.num_procs = 4;
  lanl.loops = 24;
  const trace::Trace trace = workloads::lanl_app2(lanl);

  const auto run = [&](const cache::CacheConfig* config,
                       cache::CacheMetrics* metrics) -> workloads::ReplayResult {
    // DEF striping: every uncached request pays per-server startups, the
    // regime write-back coalescing wins in.  (The MHA-scheme cached path is
    // pinned byte-level by CloseToOpenReplayVerifies.)
    auto scheme = layouts::make_def();
    // Startup-dominated devices (the small-write regime the cache targets);
    // byte-correctness is pinned by verify_data regardless of timing.
    sim::ClusterConfig cluster = tiny_cluster(2, 1);
    cluster.hdd = flat_device("hdd", 1.0, 1e-5);
    cluster.ssd = flat_device("ssd", 0.1, 1e-6);
    pfs::PfsOptions options;
    options.store_data = true;
    pfs::HybridPfs pfs(cluster, options);
    auto deployment = scheme->prepare(pfs, trace);
    EXPECT_TRUE(deployment.is_ok());
    workloads::ReplayOptions replay_options;
    replay_options.verify_data = true;
    replay_options.cache = config;
    replay_options.cache_metrics = metrics;
    auto result = workloads::replay(pfs, *deployment, trace, replay_options);
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    return result.is_ok() ? std::move(result).take() : workloads::ReplayResult{};
  };

  cache::CacheConfig config;
  config.page_size = 32_KiB;
  config.num_pages = 64;
  // Deep drain per watermark flush: larger sorted runs, fewer dispatches.
  config.dirty_low = 0.125;
  cache::CacheMetrics metrics;
  const workloads::ReplayResult uncached = run(nullptr, nullptr);
  const workloads::ReplayResult cached = run(&config, &metrics);

  // verify_data already pinned byte correctness inside both replays; the
  // cached one must also have absorbed the small writes and won time.
  EXPECT_EQ(cached.bytes_written, uncached.bytes_written);
  EXPECT_GT(metrics.absorbed_writes, 0u);
  EXPECT_GT(metrics.flushes, 0u);
  EXPECT_LT(cached.makespan, uncached.makespan);

  // Determinism: an identical cached replay reproduces makespan and counters.
  cache::CacheMetrics metrics2;
  const workloads::ReplayResult again = run(&config, &metrics2);
  EXPECT_DOUBLE_EQ(again.makespan, cached.makespan);
  EXPECT_EQ(metrics2.flush_ops, metrics.flush_ops);
  EXPECT_EQ(metrics2.hits, metrics.hits);
}

TEST(Cache, CloseToOpenReplayVerifies) {
  workloads::LanlConfig lanl;
  lanl.num_procs = 4;
  lanl.loops = 12;
  const trace::Trace trace = workloads::lanl_app2(lanl);
  auto scheme = layouts::make_mha();
  pfs::PfsOptions options;
  options.store_data = true;
  pfs::HybridPfs pfs(tiny_cluster(2, 1), options);
  auto deployment = scheme->prepare(pfs, trace);
  ASSERT_TRUE(deployment.is_ok());
  cache::CacheConfig config;
  config.page_size = 32_KiB;
  config.num_pages = 32;
  config.mode = cache::ConsistencyMode::kCloseToOpen;
  config.shared = false;  // per-client pools need the epoch flushes
  workloads::ReplayOptions replay_options;
  replay_options.verify_data = true;
  replay_options.cache = &config;
  auto result = workloads::replay(pfs, *deployment, trace, replay_options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
}

// ------------------------------------------------- cache x permanent loss ---

/// A replicated world for the cache-under-loss tests: 2H+2S, one hot
/// H-resident region [0, 128K) replicated onto an SServer (replicate_hot),
/// passthrough above.  Killing HServer 0 wipes its stores, so any
/// byte-correct page fill below really came from the replica.
struct LossWorld {
  std::unique_ptr<pfs::HybridPfs> pfs;
  std::unique_ptr<core::Redirector> redirector;
  std::unique_ptr<repair::Membership> membership;
  std::unique_ptr<io::MpiSim> mpi;
  std::unique_ptr<io::MpiFile> file;

  LossWorld() {
    pfs = std::make_unique<pfs::HybridPfs>(tiny_cluster(2, 2));
    auto original = pfs->create_file("orig");
    EXPECT_TRUE(original.is_ok());
    EXPECT_TRUE(layouts::populate_file(*pfs, *original, 256_KiB).is_ok());

    core::ReorganizePlan plan;
    plan.drt = core::Drt("orig");
    core::Region r0;
    r0.name = "orig.mha.r0";
    r0.length = 128_KiB;
    plan.regions.push_back(r0);
    EXPECT_TRUE(plan.drt.insert(core::DrtEntry{0, 128_KiB, r0.name, 0}).is_ok());
    core::ApplyOptions apply;
    apply.replicate_hot = true;
    auto report = core::Placer::apply(*pfs, plan, {core::StripePair{32_KiB, 0}}, apply);
    EXPECT_TRUE(report.is_ok()) << report.status().to_string();
    for (const auto& [region, replica] : report->replica_pairs) {
      EXPECT_TRUE(plan.drt.set_replica(region, replica).is_ok());
    }

    auto redir = core::Redirector::create(*pfs, std::move(plan.drt));
    EXPECT_TRUE(redir.is_ok());
    redirector = std::make_unique<core::Redirector>(std::move(*redir));
    membership = std::make_unique<repair::Membership>(pfs->num_servers());
    pfs->set_membership(membership.get());
    mpi = std::make_unique<io::MpiSim>(1);
    auto f = io::MpiFile::open(*pfs, *mpi, "orig");
    EXPECT_TRUE(f.is_ok());
    file = std::make_unique<io::MpiFile>(std::move(*f));
    file->set_interceptor(redirector.get());
    pfs->reset_stats();
    pfs->reset_clocks();
  }

  cache::CacheConfig small_config() const {
    cache::CacheConfig config;
    config.page_size = 16_KiB;
    config.num_pages = 16;
    config.mode = cache::ConsistencyMode::kWriteBack;
    return config;
  }
};

TEST(Cache, FailoverReadPopulatesFrames) {
  LossWorld w;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, w.small_config());
  repair::kill_server(*w.membership, *w.pfs, 0, 0.0);

  // The miss fills a whole page whose even stripes lived on the dead
  // HServer: the fill is served through replica failover, byte-identical.
  std::vector<std::uint8_t> buf(4_KiB);
  ASSERT_TRUE(cached.read_at(0, 10_KiB, buf.data(), buf.size()).is_ok());
  EXPECT_EQ(buf, pattern(10_KiB, 4_KiB));
  EXPECT_GT(w.pfs->failover_stats().failover_reads, 0u);
  EXPECT_EQ(w.pfs->failover_stats().unavailable, 0u);
  EXPECT_TRUE(cached.is_cached(0, 10_KiB));

  // The frame is now a normal cache page: the re-read hits it without
  // touching the replica (or any server) again.
  const std::uint64_t failovers = w.pfs->failover_stats().failover_reads;
  const std::uint64_t before = total_sub_requests(*w.pfs);
  ASSERT_TRUE(cached.read_at(0, 8_KiB, buf.data(), buf.size()).is_ok());
  EXPECT_EQ(buf, pattern(8_KiB, 4_KiB));
  EXPECT_EQ(cached.metrics().hits, 1u);
  EXPECT_EQ(w.pfs->failover_stats().failover_reads, failovers);
  EXPECT_EQ(total_sub_requests(*w.pfs), before);
}

TEST(Cache, RebuildRunsMigrationProtocolAgainstCache) {
  LossWorld w;
  cache::CachedFile cached(*w.file, *w.mpi, *w.pfs, w.small_config());

  // Warm a clean frame and absorb a dirty write inside the region, both
  // write-back deferred: the newest bytes exist only in the pool.
  std::vector<std::uint8_t> buf(4_KiB);
  ASSERT_TRUE(cached.read_at(0, 64_KiB, buf.data(), buf.size()).is_ok());
  const auto bytes = marked(4_KiB, 0xEE);
  ASSERT_TRUE(cached.write_at(0, 20_KiB, bytes.data(), bytes.size()).is_ok());
  EXPECT_TRUE(cached.is_dirty(0, 20_KiB));

  repair::kill_server(*w.membership, *w.pfs, 0, 1.0);
  repair::RebuildOptions options;
  options.cache = &cached;
  repair::Rebuilder rebuilder(*w.pfs, *w.redirector, *w.membership, "", options);
  ASSERT_TRUE(rebuilder.run_to_completion(1.0).is_ok());
  ASSERT_TRUE(rebuilder.done());
  EXPECT_EQ(rebuilder.report().primaries_rebuilt, 1u);

  // prepare_migration flushed the dirty page before the copy, so the
  // rebuilt primary holds the written bytes; invalidate then dropped every
  // frame whose placement changed.
  EXPECT_FALSE(cached.is_dirty(0, 20_KiB));
  EXPECT_FALSE(cached.is_cached(0, 64_KiB));
  EXPECT_GT(cached.metrics().invalidated_pages, 0u);

  // The uncached client view reads the rebuilt region byte-identically —
  // no failover, no unavailability — including the cache-absorbed write.
  w.pfs->reset_failover_stats();
  std::vector<std::uint8_t> all(256_KiB);
  ASSERT_TRUE(w.file->read_at(0, 0, all.data(), all.size()).is_ok());
  std::vector<std::uint8_t> want = pattern(0, 256_KiB);
  for (common::ByteCount i = 0; i < 4_KiB; ++i) want[20_KiB + i] = 0xEE;
  EXPECT_EQ(all, want);
  EXPECT_EQ(w.pfs->failover_stats().failover_reads, 0u);
  EXPECT_EQ(w.pfs->failover_stats().unavailable, 0u);
}

}  // namespace
}  // namespace mha
