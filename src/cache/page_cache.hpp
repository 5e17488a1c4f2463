// Client-side cooperative page cache with write-back coalescing and
// heterogeneity-aware placement policy (ROADMAP item 2).
//
// Sits between the application-facing MpiFile handle and the redirector:
// reads are served from a fixed pool of pages (CLOCK eviction), small
// writes are absorbed and later flushed as few large offset-sorted runs
// through MpiFile::dispatch_bulk — one batched pfs call, one dispatch per
// touched server — instead of one server round trip per application write.
// The LANL App2 16 B + 128 KiB interleave is the poster child: on HDDs the
// per-op startup cost dominates, so coalescing hundreds of small writes
// into page-aligned runs cuts dispatched server ops by an order of
// magnitude.
//
// Heterogeneity-aware hooks (the HACache idea applied at the client): the
// cache probes each page's placement through the DRT — a page whose
// backing region stripes onto any HServer is classed kHServer — and (a)
// retains HServer pages preferentially (a higher CLOCK reference boost, so
// slow devices re-serve fewer misses), (b) flushes dirty HServer pages
// first under pressure (slow devices get the longest runway), and (c)
// stops read-ahead at a placement-run boundary unless a fresh DRT lookup
// shows the next run has the same server class.
//
// Consistency modes:
//   kWriteThrough - writes pass straight through (cached copies updated);
//                   reads may still hit.
//   kWriteBack    - writes absorbed; flush on pressure (dirty watermark /
//                   dirty CLOCK victim), sync, conflicting access, or job
//                   deadline.
//   kCloseToOpen  - write-back within an epoch; epoch_close() (the
//                   replayer's barrier hook) flushes and invalidates
//                   everything, NFS-style.
//
// The hit path is allocation-free in steady state (golden-gated in the
// microbench): page lookup is an open-addressing table sized at
// construction, all scratch lives in member SmallVecs/vectors that retain
// capacity.  Same single-client rule as the rest of the request path: a
// CachedFile may be shared across threads only with external
// synchronisation.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "io/mpi_file.hpp"
#include "io/mpi_sim.hpp"
#include "pfs/file_system.hpp"

namespace mha::cache {

enum class ConsistencyMode : std::uint8_t { kWriteThrough = 0, kWriteBack, kCloseToOpen };

inline const char* to_string(ConsistencyMode m) {
  switch (m) {
    case ConsistencyMode::kWriteThrough: return "write-through";
    case ConsistencyMode::kWriteBack: return "write-back";
    default: return "close-to-open";
  }
}

/// Device class backing a page, derived from its placement: any HServer
/// byte in the backing region's stripe pattern makes the page kHServer.
enum class PageClass : std::uint8_t { kSServer = 0, kHServer = 1 };

/// Why a flush happened (indexes CacheMetrics::flush_by_trigger).
enum class FlushTrigger : std::uint8_t { kPressure = 0, kSync, kConflict, kDeadline };

struct CacheConfig {
  common::ByteCount page_size = 64 * 1024;
  std::size_t num_pages = 256;
  ConsistencyMode mode = ConsistencyMode::kWriteBack;
  /// Consecutive sequential reads (per rank) before read-ahead engages.
  std::size_t readahead_trigger = 2;
  /// Pages prefetched past a sequential read (0 disables read-ahead).
  std::size_t readahead_pages = 8;
  /// Dirty-page watermarks as fractions of the pool: crossing `dirty_high`
  /// flushes (HServer-first, offset-sorted) down to `dirty_low`.
  double dirty_high = 0.75;
  double dirty_low = 0.5;
  /// Heterogeneity-aware policy: HServer pages get a larger CLOCK boost and
  /// dirty HServer pages flush first under pressure.
  bool hetero_aware = true;
  /// Virtual seconds charged per cache hit / absorbed write (table lookup +
  /// client-local copy; ~memcpy at memory bandwidth).
  common::Seconds hit_overhead = 2.0e-7;
  /// Flush dirty pages whose owning job's deadline is within this margin of
  /// the triggering request's issue time.
  common::Seconds deadline_margin = 0.0;
  /// One pool shared by all ranks (coherent: a rank reads its neighbour's
  /// absorbed write) vs. one private pool per rank (real per-client caches;
  /// coherent across ranks only under close-to-open discipline).
  bool shared = true;
  /// Requests spanning more than this many pages bypass the pool entirely
  /// (after flushing/invalidating their overlap) — huge streaming requests
  /// would only churn it.  0 picks num_pages / 4.
  std::size_t bypass_pages = 0;
};

/// Counter block in the FaultMetrics reporting style; every decision the
/// cache makes is visible here (and asserted on in tests/benches).
struct CacheMetrics {
  std::uint64_t hits = 0;             ///< pages served from the pool
  std::uint64_t misses = 0;           ///< pages filled on demand
  std::uint64_t hit_bytes = 0;
  std::uint64_t miss_bytes = 0;
  std::uint64_t bypasses = 0;         ///< requests too large for the pool
  std::uint64_t absorbed_writes = 0;  ///< page-writes absorbed (write-back)
  std::uint64_t coalesced_writes = 0; ///< absorbed into an already-dirty page
  std::uint64_t write_throughs = 0;   ///< requests passed straight through
  std::uint64_t evict_clean = 0;
  std::uint64_t evict_dirty = 0;      ///< CLOCK victims needing a flush first
  std::uint64_t invalidated_pages = 0;
  std::uint64_t flushes = 0;          ///< flush events
  std::uint64_t flush_ops = 0;        ///< coalesced runs dispatched
  std::uint64_t flush_pages = 0;
  std::uint64_t flush_bytes = 0;
  std::uint64_t flush_by_trigger[4] = {0, 0, 0, 0};  ///< FlushTrigger-indexed
  std::uint64_t prefetch_batches = 0;
  std::uint64_t prefetch_pages = 0;
  std::uint64_t prefetch_hits = 0;    ///< hits on a page still in flight

  double hit_ratio() const {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }

  /// "cache: hits=... / flush: runs=..." block (FaultMetrics::table idiom).
  std::string table() const;
};

/// A page cache wrapped around one MpiFile handle.  All I/O for the file
/// should go through read_at/write_at; flush_all must run before anyone
/// reads the PFS underneath the cache (the replayer does this before
/// reading the makespan).
class CachedFile {
 public:
  /// `file`, `mpi` and `pfs` are borrowed and must outlive the cache.
  CachedFile(io::MpiFile& file, io::MpiSim& mpi, pfs::HybridPfs& pfs, CacheConfig config);

  /// MPI_File_read_at through the cache: hits cost hit_overhead virtual
  /// seconds, misses fill whole pages via one bulk dispatch, sequential
  /// streams arm read-ahead.  Advances the rank's clock like MpiFile does.
  /// `job` and `deadline` are the request's own (see io::BatchOp): demand
  /// fills and the read-ahead they arm are billed to `job`, and a bypass
  /// passes both down.
  common::Result<io::OpResult> read_at(int rank, common::Offset offset, std::uint8_t* out,
                                       common::ByteCount size,
                                       common::JobId job = common::kDefaultJob,
                                       common::Seconds deadline =
                                           std::numeric_limits<double>::infinity());

  /// MPI_File_write_at through the cache: write-through passes down (cached
  /// copies kept coherent), write-back absorbs into dirty pages and flushes
  /// on pressure/conflict/deadline.  An absorbed page records `job` (its
  /// later flush is billed there) and the earliest `deadline` absorbed (the
  /// deadline flush trigger); write-through and bypass pass both down.
  common::Result<io::OpResult> write_at(int rank, common::Offset offset,
                                        const std::uint8_t* data, common::ByteCount size,
                                        common::JobId job = common::kDefaultJob,
                                        common::Seconds deadline =
                                            std::numeric_limits<double>::infinity());

  /// Sync flush: every dirty page in every shard, coalesced and dispatched
  /// at virtual instant `issue`.  Returns the last flush completion (`issue`
  /// when nothing was dirty).  On failure pages stay dirty (retryable).
  common::Result<common::Seconds> flush_all(common::Seconds issue);

  /// Close-to-open epoch boundary (the replayer's barrier hook): flush
  /// everything at the barrier instant, invalidate the pool, and advance
  /// every rank past the flush.  No-op in other modes unless `force`.
  common::Result<common::Seconds> epoch_close(bool force = false);

  /// Migration protocol, prepare side: flush dirty pages overlapping
  /// [offset, offset+size) so the migrator copies current bytes.
  common::Result<common::Seconds> prepare_migration(common::Offset offset,
                                                    common::ByteCount size,
                                                    common::Seconds issue);

  /// Migration protocol, commit/recovery side: drop cached pages overlapping
  /// [offset, offset+size) — their placement (and with it the page class)
  /// changed, so the next access re-probes the DRT and refills.
  void invalidate(common::Offset offset, common::ByteCount size);
  void invalidate_all();

  const CacheMetrics& metrics() const { return metrics_; }
  const CacheConfig& config() const { return config_; }

  // ------------------------------------------------- test introspection ---
  /// Whole page holding `offset` present in `rank`'s shard?
  bool is_cached(int rank, common::Offset offset) const;
  bool is_dirty(int rank, common::Offset offset) const;
  /// Placement class recorded for the cached page (precondition: is_cached).
  PageClass cached_class(int rank, common::Offset offset) const;
  std::size_t dirty_pages(int rank) const;

 private:
  static constexpr common::Offset kNoPage = ~common::Offset{0};
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  struct Frame {
    common::Offset page = kNoPage;
    /// Valid byte range within the page (contiguous hull; bytes outside it
    /// are garbage).  A demand-filled page is valid over its fill range; a
    /// write-allocated page only over the written hull.
    std::uint32_t valid_lo = 0, valid_hi = 0;
    /// Dirty sub-hull (dirty_hi > dirty_lo iff dirty); always inside the
    /// valid hull, so flushing the hull writes real bytes only.
    std::uint32_t dirty_lo = 0, dirty_hi = 0;
    std::uint8_t ref = 0;     ///< CLOCK reference counter
    bool pinned = false;      ///< mid-operation; CLOCK must skip
    bool prefetched = false;  ///< filled by read-ahead, not on demand
    PageClass klass = PageClass::kSServer;
    int rank = 0;             ///< last writer (flush attribution)
    common::JobId job = common::kDefaultJob;
    common::Seconds deadline = kInf;  ///< earliest deadline absorbed
    common::Seconds ready_at = 0.0;   ///< prefetch in-flight completion
  };

  /// One pool: the whole cache in shared mode, one per rank otherwise.
  struct Shard {
    std::vector<std::uint8_t> data;          ///< num_pages * page_size
    std::vector<Frame> frames;
    std::vector<std::int32_t> slots;         ///< open addressing, -1 empty
    common::SmallVec<std::uint32_t, 8> free;
    std::size_t hand = 0;
    std::size_t dirty = 0;
    common::Seconds min_deadline = kInf;
  };

  Shard& shard_of(int rank) { return shards_[config_.shared ? 0 : static_cast<std::size_t>(rank)]; }
  const Shard& shard_of(int rank) const {
    return shards_[config_.shared ? 0 : static_cast<std::size_t>(rank)];
  }
  std::uint8_t* frame_data(Shard& sh, std::uint32_t idx) {
    return sh.data.data() + static_cast<std::size_t>(idx) * config_.page_size;
  }

  // Open-addressing page table (linear probe, backward-shift erase).
  std::int32_t find(const Shard& sh, common::Offset page) const;
  void insert(Shard& sh, common::Offset page, std::uint32_t frame);
  void erase(Shard& sh, common::Offset page);

  /// CLOCK reference boost: HServer pages are worth more to retain.
  std::uint8_t ref_boost(PageClass klass) const {
    return config_.hetero_aware && klass == PageClass::kHServer ? 3 : 1;
  }

  /// Claims a frame for `page` (free list, then CLOCK).  A dirty victim is
  /// flushed first at `issue` (completion folded into `completion`).
  common::Result<std::uint32_t> allocate_frame(Shard& sh, common::Offset page,
                                               common::Seconds issue,
                                               common::Seconds& completion);
  /// Drops one frame (hash erase + free list; dirty counter maintained).
  void drop_frame(Shard& sh, std::uint32_t idx);

  /// Placement probe: one fresh DRT lookup at `offset` resolving the
  /// contiguous placement run [offset, run_end) and its server class.
  struct Placement {
    PageClass klass = PageClass::kSServer;
    common::Offset run_end = 0;
  };
  Placement probe(common::Offset offset);
  PageClass file_class(common::FileId file);

  /// Flushes the frames listed in flush_victims_ (indices into sh.frames),
  /// coalescing contiguous same-job dirty hulls into single bulk runs.
  common::Result<common::Seconds> flush_victims(Shard& sh, common::Seconds issue,
                                                FlushTrigger trigger);
  /// Selects + flushes dirty frames overlapping [offset, offset+size).
  common::Result<common::Seconds> flush_overlap(Shard& sh, common::Offset offset,
                                                common::ByteCount size,
                                                common::Seconds issue,
                                                FlushTrigger trigger);
  /// Watermark flush: dirty HServer pages first, down to dirty_low.
  common::Result<common::Seconds> flush_pressure(Shard& sh, common::Seconds issue);
  /// Deadline flush: everything due within deadline_margin of `now`.
  common::Result<common::Seconds> flush_deadline(Shard& sh, common::Seconds now);

  /// Fill of miss_pages_ (ascending, deduped; frames already allocated and
  /// hashed): contiguous pages merge into staged runs read via one
  /// dispatch_bulk, then scatter into their frames.  Pages normally fill
  /// [0, page_size) clipped at EOF; [req_lo, req_hi) widens the clip so a
  /// read past EOF keeps exact uncached semantics.  The runs are billed to
  /// `job`, the reading request's tenant.  Returns the slowest run
  /// completion; failed runs drop their frames.
  common::Result<common::Seconds> fill_pages(Shard& sh, common::Seconds issue,
                                             common::Offset req_lo, common::Offset req_hi,
                                             bool prefetch, common::JobId job);

  /// Sequential-stream bookkeeping + read-ahead issue (never touches the
  /// rank clock; prefetched frames carry ready_at = their run completion).
  void maybe_readahead(Shard& sh, int rank, common::Offset offset, common::ByteCount size,
                       common::Seconds issue, common::JobId job);

  /// Large-request passthrough: flush + invalidate the overlap, then one
  /// uncached MpiFile call (preserves exact uncached semantics).
  common::Result<io::OpResult> bypass(int rank, common::OpType op, common::Offset offset,
                                      std::uint8_t* out, const std::uint8_t* data,
                                      common::ByteCount size, common::JobId job,
                                      common::Seconds deadline);

  io::MpiFile* file_;
  io::MpiSim* mpi_;
  pfs::HybridPfs* pfs_;
  CacheConfig config_;
  CacheMetrics metrics_;
  std::vector<Shard> shards_;

  /// Per-rank sequential-read stream state.
  struct Stream {
    common::Offset next = 0;
    std::size_t run = 0;
  };
  std::vector<Stream> streams_;

  /// Cached placement run (invalidated on migration); per-file class cache
  /// indexed by FileId (cold path only).
  Placement last_probe_;
  common::Offset last_probe_start_ = kNoPage;
  std::vector<std::int8_t> file_class_;  ///< -1 unknown, else PageClass

  // Reused scratch (single-client rule; capacity retained across requests).
  common::SmallVec<common::Offset, 16> miss_pages_;
  common::SmallVec<std::uint32_t, 16> flush_victims_;
  common::SmallVec<io::BulkOp, 8> bulk_ops_;
  io::BulkOutcomeVec bulk_outcomes_;
  /// Run begin indices into miss_pages_/flush_victims_ (size = runs + 1).
  common::SmallVec<std::uint32_t, 8> run_begin_;
  std::vector<std::uint8_t> staging_;  ///< coalesced run payload arena
  io::SegmentList probe_segs_;
};

}  // namespace mha::cache
