#include "cache/page_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace mha::cache {

namespace {

/// Fibonacci-hash of a page number into a power-of-two slot table.
inline std::size_t page_hash(common::Offset page) {
  std::uint64_t h = page * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

inline std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::string CacheMetrics::table() const {
  char line[240];
  std::string out;
  std::snprintf(line, sizeof(line),
                "cache:    hits=%llu misses=%llu ratio=%.2f hit-bytes=%llu "
                "miss-bytes=%llu bypasses=%llu\n",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses), hit_ratio(),
                static_cast<unsigned long long>(hit_bytes),
                static_cast<unsigned long long>(miss_bytes),
                static_cast<unsigned long long>(bypasses));
  out += line;
  std::snprintf(line, sizeof(line),
                "writes:   absorbed=%llu coalesced=%llu write-through=%llu\n",
                static_cast<unsigned long long>(absorbed_writes),
                static_cast<unsigned long long>(coalesced_writes),
                static_cast<unsigned long long>(write_throughs));
  out += line;
  std::snprintf(line, sizeof(line),
                "evict:    clean=%llu dirty=%llu invalidated=%llu\n",
                static_cast<unsigned long long>(evict_clean),
                static_cast<unsigned long long>(evict_dirty),
                static_cast<unsigned long long>(invalidated_pages));
  out += line;
  std::snprintf(line, sizeof(line),
                "flush:    events=%llu runs=%llu pages=%llu bytes=%llu "
                "(pressure=%llu sync=%llu conflict=%llu deadline=%llu)\n",
                static_cast<unsigned long long>(flushes),
                static_cast<unsigned long long>(flush_ops),
                static_cast<unsigned long long>(flush_pages),
                static_cast<unsigned long long>(flush_bytes),
                static_cast<unsigned long long>(flush_by_trigger[0]),
                static_cast<unsigned long long>(flush_by_trigger[1]),
                static_cast<unsigned long long>(flush_by_trigger[2]),
                static_cast<unsigned long long>(flush_by_trigger[3]));
  out += line;
  std::snprintf(line, sizeof(line), "prefetch: batches=%llu pages=%llu hits=%llu\n",
                static_cast<unsigned long long>(prefetch_batches),
                static_cast<unsigned long long>(prefetch_pages),
                static_cast<unsigned long long>(prefetch_hits));
  out += line;
  return out;
}

CachedFile::CachedFile(io::MpiFile& file, io::MpiSim& mpi, pfs::HybridPfs& pfs,
                       CacheConfig config)
    : file_(&file), mpi_(&mpi), pfs_(&pfs), config_(config) {
  if (config_.num_pages == 0) config_.num_pages = 1;
  if (config_.page_size == 0) config_.page_size = 64 * 1024;
  if (config_.bypass_pages == 0) {
    config_.bypass_pages = std::max<std::size_t>(config_.num_pages / 4, 1);
  }
  const std::size_t nshards =
      config_.shared ? 1 : static_cast<std::size_t>(mpi_->world_size());
  shards_.resize(nshards);
  const std::size_t nslots = next_pow2(2 * config_.num_pages);
  for (Shard& sh : shards_) {
    sh.data.resize(config_.num_pages * config_.page_size);
    sh.frames.resize(config_.num_pages);
    sh.slots.assign(nslots, -1);
    sh.free.reserve(config_.num_pages);
    // Pop order = ascending frame index (cosmetic but deterministic).
    for (std::size_t i = config_.num_pages; i > 0; --i) {
      sh.free.push_back(static_cast<std::uint32_t>(i - 1));
    }
  }
  streams_.resize(static_cast<std::size_t>(mpi_->world_size()));
}

// ------------------------------------------------------------ page table ---

std::int32_t CachedFile::find(const Shard& sh, common::Offset page) const {
  const std::size_t mask = sh.slots.size() - 1;
  std::size_t i = page_hash(page) & mask;
  while (sh.slots[i] != -1) {
    if (sh.frames[static_cast<std::size_t>(sh.slots[i])].page == page) return sh.slots[i];
    i = (i + 1) & mask;
  }
  return -1;
}

void CachedFile::insert(Shard& sh, common::Offset page, std::uint32_t frame) {
  const std::size_t mask = sh.slots.size() - 1;
  std::size_t i = page_hash(page) & mask;
  while (sh.slots[i] != -1) i = (i + 1) & mask;
  sh.slots[i] = static_cast<std::int32_t>(frame);
}

void CachedFile::erase(Shard& sh, common::Offset page) {
  const std::size_t mask = sh.slots.size() - 1;
  std::size_t i = page_hash(page) & mask;
  while (sh.slots[i] != -1 &&
         sh.frames[static_cast<std::size_t>(sh.slots[i])].page != page) {
    i = (i + 1) & mask;
  }
  if (sh.slots[i] == -1) return;
  // Backward-shift deletion keeps probe chains gap-free without tombstones.
  sh.slots[i] = -1;
  std::size_t j = i;
  for (;;) {
    j = (j + 1) & mask;
    if (sh.slots[j] == -1) break;
    const std::size_t home =
        page_hash(sh.frames[static_cast<std::size_t>(sh.slots[j])].page) & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      sh.slots[i] = sh.slots[j];
      sh.slots[j] = -1;
      i = j;
    }
  }
}

void CachedFile::drop_frame(Shard& sh, std::uint32_t idx) {
  Frame& fr = sh.frames[idx];
  if (fr.page != kNoPage) erase(sh, fr.page);
  if (fr.dirty_hi > fr.dirty_lo) --sh.dirty;
  fr = Frame{};
  sh.free.push_back(idx);
}

common::Result<std::uint32_t> CachedFile::allocate_frame(Shard& sh, common::Offset page,
                                                         common::Seconds issue,
                                                         common::Seconds& completion) {
  std::uint32_t idx;
  if (!sh.free.empty()) {
    idx = sh.free.back();
    sh.free.pop_back();
  } else {
    // CLOCK sweep: pinned frames are invisible, a referenced frame spends
    // one unit of its boost per pass (HServer pages carry a larger boost, so
    // they survive more passes — the heterogeneity-aware retention hook).
    // Expired *dirty* frames are only fallback victims: evicting one costs a
    // single-page flush dispatch, exactly the small write the cache exists
    // to coalesce, so the sweep prefers any clean expired frame and leaves
    // dirty pages for the watermark flush to drain in large sorted runs.
    const std::size_t n = sh.frames.size();
    std::size_t scanned = 0, unpinned_seen = 0, passes = 0;
    std::int64_t dirty_fallback = -1;
    for (;;) {
      const std::size_t cur = sh.hand;
      sh.hand = (sh.hand + 1) % n;
      Frame& fr = sh.frames[cur];
      if (!fr.pinned) {
        ++unpinned_seen;
        if (fr.ref == 0) {
          if (fr.dirty_hi > fr.dirty_lo) {
            if (dirty_fallback < 0) dirty_fallback = static_cast<std::int64_t>(cur);
          } else {
            idx = static_cast<std::uint32_t>(cur);
            break;
          }
        } else {
          --fr.ref;
        }
      }
      if (++scanned == n) {
        if (unpinned_seen == 0) {
          return common::Status::failed_precondition(
              "page cache exhausted: every frame pinned (request wider than pool)");
        }
        // Two full passes without a clean expired frame: pay the flush.
        if (dirty_fallback >= 0 && ++passes == 2) {
          idx = static_cast<std::uint32_t>(dirty_fallback);
          break;
        }
        scanned = 0;
        unpinned_seen = 0;
      }
    }
    Frame& victim = sh.frames[idx];
    if (victim.dirty_hi > victim.dirty_lo) {
      ++metrics_.evict_dirty;
      flush_victims_.clear();
      flush_victims_.push_back(idx);
      auto flushed = flush_victims(sh, issue, FlushTrigger::kPressure);
      if (!flushed.is_ok()) return flushed.status();
      completion = std::max(completion, *flushed);
    } else {
      ++metrics_.evict_clean;
    }
    erase(sh, victim.page);
    victim = Frame{};
  }
  Frame& fr = sh.frames[idx];
  fr.page = page;
  insert(sh, page, idx);
  return idx;
}

// ------------------------------------------------------- placement probe ---

PageClass CachedFile::file_class(common::FileId file) {
  if (file_class_.size() <= file) file_class_.resize(file + 1, -1);
  if (file_class_[file] < 0) {
    const pfs::StripeLayout& layout = pfs_->mds().info(file).layout;
    PageClass klass = PageClass::kSServer;
    const std::size_t nh = std::min(pfs_->num_hservers(), layout.num_servers());
    for (std::size_t i = 0; i < nh; ++i) {
      if (layout.width(i) > 0) {
        klass = PageClass::kHServer;
        break;
      }
    }
    file_class_[file] = static_cast<std::int8_t>(klass);
  }
  return static_cast<PageClass>(file_class_[file]);
}

CachedFile::Placement CachedFile::probe(common::Offset offset) {
  if (last_probe_start_ != kNoPage && offset >= last_probe_start_ &&
      offset < last_probe_.run_end) {
    return last_probe_;
  }
  Placement pl;
  io::IoInterceptor* ic = file_->interceptor();
  if (ic == nullptr) {
    pl.klass = file_class(file_->file_id());
    pl.run_end = std::numeric_limits<common::Offset>::max();
  } else {
    // One fresh DRT lookup resolves the contiguous placement run starting at
    // `offset`: the translation's first segment is maximal for its target
    // file, so its length bounds how far the current server class extends.
    const common::ByteCount window =
        std::max<common::ByteCount>(config_.page_size * (config_.readahead_pages + 1),
                                    256 * 1024);
    probe_segs_.clear();
    ic->translate(offset, window, probe_segs_);
    const io::RedirectSegment& s0 = probe_segs_[0];
    pl.klass = file_class(s0.file);
    pl.run_end = offset + s0.length;
  }
  last_probe_ = pl;
  last_probe_start_ = offset;
  return pl;
}

// ----------------------------------------------------------------- flush ---

common::Result<common::Seconds> CachedFile::flush_victims(Shard& sh, common::Seconds issue,
                                                          FlushTrigger trigger) {
  if (flush_victims_.empty()) return issue;
  const common::ByteCount ps = config_.page_size;
  // Offset-sorted dirty hulls; contiguous same-job hulls merge into one run
  // so the whole run leaves as a single bulk op (one server dispatch per
  // touched server, one startup charge per sub-op — the coalescing win).
  std::sort(flush_victims_.begin(), flush_victims_.end(),
            [&sh, ps](std::uint32_t a, std::uint32_t b) {
              const common::Offset sa = sh.frames[a].page * ps + sh.frames[a].dirty_lo;
              const common::Offset sb = sh.frames[b].page * ps + sh.frames[b].dirty_lo;
              if (sa != sb) return sa < sb;
              return a < b;
            });

  run_begin_.clear();
  run_begin_.push_back(0);
  common::ByteCount total = 0;
  for (std::size_t i = 0; i < flush_victims_.size(); ++i) {
    const Frame& fr = sh.frames[flush_victims_[i]];
    total += fr.dirty_hi - fr.dirty_lo;
    if (i + 1 < flush_victims_.size()) {
      const Frame& nx = sh.frames[flush_victims_[i + 1]];
      const bool contiguous =
          fr.page * ps + fr.dirty_hi == nx.page * ps + nx.dirty_lo && fr.job == nx.job;
      if (!contiguous) run_begin_.push_back(static_cast<std::uint32_t>(i + 1));
    }
  }
  run_begin_.push_back(static_cast<std::uint32_t>(flush_victims_.size()));

  staging_.resize(total);
  bulk_ops_.clear();
  common::ByteCount stage_off = 0;
  for (std::size_t r = 0; r + 1 < run_begin_.size(); ++r) {
    const Frame& head = sh.frames[flush_victims_[run_begin_[r]]];
    io::BulkOp op;
    op.offset = head.page * ps + head.dirty_lo;
    op.write_data = staging_.data() + stage_off;
    op.job = head.job;
    // Flushes are durability writes: never deadline-abandoned mid-dispatch,
    // even when the owning job's foreground requests would be.
    op.deadline = kInf;
    for (std::uint32_t i = run_begin_[r]; i < run_begin_[r + 1]; ++i) {
      const Frame& fr = sh.frames[flush_victims_[i]];
      const common::ByteCount len = fr.dirty_hi - fr.dirty_lo;
      std::memcpy(staging_.data() + stage_off,
                  frame_data(sh, flush_victims_[i]) + fr.dirty_lo, len);
      stage_off += len;
      op.size += len;
    }
    bulk_ops_.push_back(op);
  }

  file_->dispatch_bulk(common::OpType::kWrite,
                       std::span<const io::BulkOp>(bulk_ops_.data(), bulk_ops_.size()),
                       issue, bulk_outcomes_);

  common::Seconds completion = issue;
  common::Status first_fail;
  std::uint64_t pages_ok = 0, bytes_ok = 0;
  for (std::size_t r = 0; r + 1 < run_begin_.size(); ++r) {
    const io::BulkOutcome& out = bulk_outcomes_[r];
    if (!out.status.is_ok()) {
      // Frames stay dirty: the flush is retryable and no byte was dropped.
      if (first_fail.is_ok()) first_fail = out.status;
      continue;
    }
    completion = std::max(completion, out.completion);
    for (std::uint32_t i = run_begin_[r]; i < run_begin_[r + 1]; ++i) {
      Frame& fr = sh.frames[flush_victims_[i]];
      bytes_ok += fr.dirty_hi - fr.dirty_lo;
      fr.dirty_lo = fr.dirty_hi = 0;
      fr.deadline = kInf;
      --sh.dirty;
      ++pages_ok;
    }
  }
  ++metrics_.flushes;
  metrics_.flush_ops += bulk_ops_.size();
  metrics_.flush_pages += pages_ok;
  metrics_.flush_bytes += bytes_ok;
  ++metrics_.flush_by_trigger[static_cast<std::size_t>(trigger)];

  sh.min_deadline = kInf;
  for (const Frame& fr : sh.frames) {
    if (fr.dirty_hi > fr.dirty_lo) sh.min_deadline = std::min(sh.min_deadline, fr.deadline);
  }
  if (!first_fail.is_ok()) return first_fail;
  return completion;
}

common::Result<common::Seconds> CachedFile::flush_overlap(Shard& sh, common::Offset offset,
                                                          common::ByteCount size,
                                                          common::Seconds issue,
                                                          FlushTrigger trigger) {
  const common::ByteCount ps = config_.page_size;
  flush_victims_.clear();
  for (std::size_t i = 0; i < sh.frames.size(); ++i) {
    const Frame& fr = sh.frames[i];
    if (fr.page == kNoPage || fr.dirty_hi <= fr.dirty_lo) continue;
    const common::Offset base = fr.page * ps;
    if (base < offset + size && offset < base + ps) {
      flush_victims_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return flush_victims(sh, issue, trigger);
}

common::Result<common::Seconds> CachedFile::flush_pressure(Shard& sh, common::Seconds issue) {
  const std::size_t low =
      static_cast<std::size_t>(config_.dirty_low * static_cast<double>(config_.num_pages));
  if (sh.dirty <= low) return issue;
  const std::size_t need = sh.dirty - low;
  flush_victims_.clear();
  for (std::size_t i = 0; i < sh.frames.size(); ++i) {
    const Frame& fr = sh.frames[i];
    if (fr.page != kNoPage && fr.dirty_hi > fr.dirty_lo && !fr.pinned) {
      flush_victims_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  // HServer pages drain first: slow devices want the small ops absorbed the
  // longest, but once the pool is under pressure they are the most expensive
  // pages to leave dirty (a later forced evict would pay HDD startup alone).
  std::sort(flush_victims_.begin(), flush_victims_.end(),
            [this, &sh](std::uint32_t a, std::uint32_t b) {
              const Frame& fa = sh.frames[a];
              const Frame& fb = sh.frames[b];
              if (config_.hetero_aware && fa.klass != fb.klass) {
                return fa.klass == PageClass::kHServer;
              }
              if (fa.page != fb.page) return fa.page < fb.page;
              return a < b;
            });
  if (flush_victims_.size() > need) flush_victims_.resize(need);
  return flush_victims(sh, issue, FlushTrigger::kPressure);
}

common::Result<common::Seconds> CachedFile::flush_deadline(Shard& sh, common::Seconds now) {
  flush_victims_.clear();
  for (std::size_t i = 0; i < sh.frames.size(); ++i) {
    const Frame& fr = sh.frames[i];
    if (fr.page != kNoPage && fr.dirty_hi > fr.dirty_lo && !fr.pinned &&
        fr.deadline <= now + config_.deadline_margin) {
      flush_victims_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return flush_victims(sh, now, FlushTrigger::kDeadline);
}

common::Result<common::Seconds> CachedFile::flush_all(common::Seconds issue) {
  common::Seconds completion = issue;
  for (Shard& sh : shards_) {
    flush_victims_.clear();
    for (std::size_t i = 0; i < sh.frames.size(); ++i) {
      const Frame& fr = sh.frames[i];
      if (fr.page != kNoPage && fr.dirty_hi > fr.dirty_lo) {
        flush_victims_.push_back(static_cast<std::uint32_t>(i));
      }
    }
    auto r = flush_victims(sh, issue, FlushTrigger::kSync);
    if (!r.is_ok()) return r.status();
    completion = std::max(completion, *r);
  }
  return completion;
}

// ------------------------------------------------------------------ fill ---

common::Result<common::Seconds> CachedFile::fill_pages(Shard& sh, common::Seconds issue,
                                                       common::Offset req_lo,
                                                       common::Offset req_hi, bool prefetch,
                                                       common::JobId job) {
  if (miss_pages_.empty()) return issue;
  const common::ByteCount ps = config_.page_size;
  const common::ByteCount fsize = file_->size();
  auto fill_hi = [&](common::Offset page) -> common::ByteCount {
    const common::Offset base = page * ps;
    common::ByteCount hi = ps;
    if (base + ps > fsize) hi = fsize > base ? fsize - base : 0;
    // A demand read past EOF keeps exact uncached semantics: read the
    // requested bytes anyway and let the pfs status speak.
    if (base < req_hi && req_hi <= base + ps) hi = std::max(hi, req_hi - base);
    else if (base < req_hi && req_hi > base + ps) hi = ps;
    return hi;
  };

  run_begin_.clear();
  run_begin_.push_back(0);
  common::ByteCount total = 0;
  for (std::size_t i = 0; i < miss_pages_.size(); ++i) {
    const common::ByteCount hi = fill_hi(miss_pages_[i]);
    total += hi;
    if (i + 1 < miss_pages_.size()) {
      const bool contiguous = miss_pages_[i + 1] == miss_pages_[i] + 1 && hi == ps;
      if (!contiguous) run_begin_.push_back(static_cast<std::uint32_t>(i + 1));
    }
  }
  run_begin_.push_back(static_cast<std::uint32_t>(miss_pages_.size()));

  staging_.resize(total);
  bulk_ops_.clear();
  common::ByteCount stage_off = 0;
  for (std::size_t r = 0; r + 1 < run_begin_.size(); ++r) {
    io::BulkOp op;
    op.offset = miss_pages_[run_begin_[r]] * ps;
    op.read_out = staging_.data() + stage_off;
    op.job = job;
    for (std::uint32_t i = run_begin_[r]; i < run_begin_[r + 1]; ++i) {
      op.size += fill_hi(miss_pages_[i]);
    }
    stage_off += op.size;
    bulk_ops_.push_back(op);
  }

  file_->dispatch_bulk(common::OpType::kRead,
                       std::span<const io::BulkOp>(bulk_ops_.data(), bulk_ops_.size()),
                       issue, bulk_outcomes_);

  common::Seconds completion = issue;
  common::Status first_fail;
  stage_off = 0;
  std::uint64_t pages_ok = 0;
  for (std::size_t r = 0; r + 1 < run_begin_.size(); ++r) {
    const io::BulkOutcome& out = bulk_outcomes_[r];
    const bool ok = out.status.is_ok();
    if (!ok && first_fail.is_ok()) first_fail = out.status;
    if (ok) completion = std::max(completion, out.completion);
    for (std::uint32_t i = run_begin_[r]; i < run_begin_[r + 1]; ++i) {
      const common::Offset page = miss_pages_[i];
      const common::ByteCount hi = fill_hi(page);
      const std::int32_t idx = find(sh, page);
      if (idx < 0) continue;  // evicted by a sibling run's victim flush
      Frame& fr = sh.frames[static_cast<std::size_t>(idx)];
      if (!ok) {
        drop_frame(sh, static_cast<std::uint32_t>(idx));
      } else {
        std::memcpy(frame_data(sh, static_cast<std::uint32_t>(idx)),
                    staging_.data() + stage_off + (page - miss_pages_[run_begin_[r]]) * ps,
                    hi);
        fr.valid_lo = 0;
        fr.valid_hi = static_cast<std::uint32_t>(hi);
        fr.ready_at = out.completion;
        fr.prefetched = prefetch;
        fr.ref = ref_boost(fr.klass);
        ++pages_ok;
      }
    }
    stage_off += bulk_ops_[r].size;
  }
  if (prefetch) {
    ++metrics_.prefetch_batches;
    metrics_.prefetch_pages += pages_ok;
  }
  (void)req_lo;
  if (!first_fail.is_ok()) return first_fail;
  return completion;
}

// ------------------------------------------------------------- read path ---

common::Result<io::OpResult> CachedFile::read_at(int rank, common::Offset offset,
                                                 std::uint8_t* out, common::ByteCount size,
                                                 common::JobId job, common::Seconds deadline) {
  const common::Seconds start = mpi_->now(rank);
  if (size == 0) return io::OpResult{start, start};
  Shard& sh = shard_of(rank);
  if (sh.dirty > 0 && sh.min_deadline <= start + config_.deadline_margin) {
    auto f = flush_deadline(sh, start);
    if (!f.is_ok()) return f.status();
  }
  const common::ByteCount ps = config_.page_size;
  const common::Offset p0 = offset / ps;
  const common::Offset p1 = (offset + size - 1) / ps;
  if (p1 - p0 + 1 > config_.bypass_pages) {
    return bypass(rank, common::OpType::kRead, offset, out, nullptr, size, job, deadline);
  }

  const auto unpin_all = [&]() {
    for (common::Offset p = p0; p <= p1; ++p) {
      const std::int32_t idx = find(sh, p);
      if (idx >= 0) sh.frames[static_cast<std::size_t>(idx)].pinned = false;
    }
  };

  common::Seconds completion = start + config_.hit_overhead;
  miss_pages_.clear();
  for (common::Offset p = p0; p <= p1; ++p) {
    const std::uint32_t lo = p == p0 ? static_cast<std::uint32_t>(offset - p * ps) : 0;
    const std::uint32_t hi = p == p1 ? static_cast<std::uint32_t>(offset + size - p * ps)
                                     : static_cast<std::uint32_t>(ps);
    std::int32_t idx = find(sh, p);
    if (idx >= 0) {
      Frame& fr = sh.frames[static_cast<std::size_t>(idx)];
      if (fr.valid_lo <= lo && hi <= fr.valid_hi) {
        ++metrics_.hits;
        metrics_.hit_bytes += hi - lo;
        if (fr.prefetched && fr.ready_at > start) ++metrics_.prefetch_hits;
        completion = std::max(completion, fr.ready_at);
        fr.ref = ref_boost(fr.klass);
        fr.pinned = true;
        continue;
      }
      // Cached but not covering: a dirty hull is a conflicting read (flush
      // before dropping so the refill sees the absorbed bytes).
      if (fr.dirty_hi > fr.dirty_lo) {
        flush_victims_.clear();
        flush_victims_.push_back(static_cast<std::uint32_t>(idx));
        auto f = flush_victims(sh, start, FlushTrigger::kConflict);
        if (!f.is_ok()) {
          unpin_all();
          return f.status();
        }
        completion = std::max(completion, *f);
      }
      drop_frame(sh, static_cast<std::uint32_t>(idx));
    }
    miss_pages_.push_back(p);
    ++metrics_.misses;
    metrics_.miss_bytes += hi - lo;
  }

  if (!miss_pages_.empty()) {
    for (const common::Offset p : miss_pages_) {
      auto alloc = allocate_frame(sh, p, start, completion);
      if (!alloc.is_ok()) {
        unpin_all();
        return alloc.status();
      }
      Frame& fr = sh.frames[*alloc];
      fr.pinned = true;
      fr.klass = probe(p * ps).klass;
    }
    auto filled = fill_pages(sh, start, offset, offset + size, /*prefetch=*/false, job);
    if (!filled.is_ok()) {
      unpin_all();
      return filled.status();
    }
    completion = std::max(completion, *filled);
  }

  for (common::Offset p = p0; p <= p1; ++p) {
    const std::uint32_t lo = p == p0 ? static_cast<std::uint32_t>(offset - p * ps) : 0;
    const std::uint32_t hi = p == p1 ? static_cast<std::uint32_t>(offset + size - p * ps)
                                     : static_cast<std::uint32_t>(ps);
    const std::int32_t idx = find(sh, p);
    Frame& fr = sh.frames[static_cast<std::size_t>(idx)];
    std::memcpy(out + (p * ps + lo - offset),
                frame_data(sh, static_cast<std::uint32_t>(idx)) + lo, hi - lo);
    fr.pinned = false;
  }
  mpi_->advance(rank, completion);
  maybe_readahead(sh, rank, offset, size, start, job);
  return io::OpResult{start, completion};
}

void CachedFile::maybe_readahead(Shard& sh, int rank, common::Offset offset,
                                 common::ByteCount size, common::Seconds issue,
                                 common::JobId job) {
  Stream& st = streams_[static_cast<std::size_t>(rank)];
  const bool sequential = offset == st.next;
  st.run = sequential ? st.run + 1 : 1;
  st.next = offset + size;
  if (config_.readahead_pages == 0 || st.run < config_.readahead_trigger) return;

  const common::ByteCount ps = config_.page_size;
  const common::ByteCount fsize = file_->size();
  common::Offset p = (offset + size - 1) / ps + 1;
  if (p * ps >= fsize) return;
  // The stream's current server class anchors the window: read-ahead stops
  // at a placement-run boundary whose fresh DRT lookup reports a different
  // class (prefetching HDD pages because the stream was on SSD — or the
  // reverse — is exactly the mistake heterogeneity-awareness exists to
  // avoid).
  Placement pl = probe(p * ps);
  const PageClass k0 = pl.klass;
  miss_pages_.clear();
  for (std::size_t i = 0; i < config_.readahead_pages; ++i, ++p) {
    const common::Offset base = p * ps;
    if (base >= fsize) break;
    if (find(sh, p) >= 0) break;  // already cached: the window has caught up
    if (base >= pl.run_end) {
      pl = probe(base);
      if (pl.klass != k0) break;
    }
    miss_pages_.push_back(p);
  }
  if (miss_pages_.empty()) return;
  common::Seconds scratch_completion = issue;
  for (const common::Offset page : miss_pages_) {
    auto alloc = allocate_frame(sh, page, issue, scratch_completion);
    if (!alloc.is_ok()) return;  // pool too hot: skip the prefetch quietly
    Frame& fr = sh.frames[*alloc];
    fr.klass = probe(page * ps).klass;
    fr.ref = ref_boost(fr.klass);
  }
  // Prefetch is advisory: failures dropped their frames inside fill_pages.
  (void)fill_pages(sh, issue, 0, 0, /*prefetch=*/true, job);
}

// ------------------------------------------------------------ write path ---

common::Result<io::OpResult> CachedFile::write_at(int rank, common::Offset offset,
                                                  const std::uint8_t* data,
                                                  common::ByteCount size, common::JobId job,
                                                  common::Seconds deadline) {
  const common::Seconds start = mpi_->now(rank);
  if (size == 0) return io::OpResult{start, start};
  Shard& sh = shard_of(rank);
  if (sh.dirty > 0 && sh.min_deadline <= start + config_.deadline_margin) {
    auto f = flush_deadline(sh, start);
    if (!f.is_ok()) return f.status();
  }
  const common::ByteCount ps = config_.page_size;
  const common::Offset p0 = offset / ps;
  const common::Offset p1 = (offset + size - 1) / ps;
  if (p1 - p0 + 1 > config_.bypass_pages) {
    return bypass(rank, common::OpType::kWrite, offset, nullptr, data, size, job, deadline);
  }

  if (config_.mode == ConsistencyMode::kWriteThrough) {
    // Keep cached copies coherent, then pass the write straight down (the
    // underlying call owns the rank clock and the timing).
    for (common::Offset p = p0; p <= p1; ++p) {
      const std::int32_t idx = find(sh, p);
      if (idx < 0) continue;
      Frame& fr = sh.frames[static_cast<std::size_t>(idx)];
      const std::uint32_t lo = p == p0 ? static_cast<std::uint32_t>(offset - p * ps) : 0;
      const std::uint32_t hi = p == p1 ? static_cast<std::uint32_t>(offset + size - p * ps)
                                       : static_cast<std::uint32_t>(ps);
      if (lo <= fr.valid_hi && fr.valid_lo <= hi) {
        std::memcpy(frame_data(sh, static_cast<std::uint32_t>(idx)) + lo,
                    data + (p * ps + lo - offset), hi - lo);
        fr.valid_lo = std::min(fr.valid_lo, lo);
        fr.valid_hi = std::max(fr.valid_hi, hi);
        fr.ref = ref_boost(fr.klass);
      } else {
        ++metrics_.invalidated_pages;
        drop_frame(sh, static_cast<std::uint32_t>(idx));
      }
    }
    ++metrics_.write_throughs;
    return file_->write_at(rank, offset, data, size, job, deadline);
  }

  // Write-back / close-to-open: absorb into dirty pages.
  common::Seconds completion = start + config_.hit_overhead;
  for (common::Offset p = p0; p <= p1; ++p) {
    const std::uint32_t lo = p == p0 ? static_cast<std::uint32_t>(offset - p * ps) : 0;
    const std::uint32_t hi = p == p1 ? static_cast<std::uint32_t>(offset + size - p * ps)
                                     : static_cast<std::uint32_t>(ps);
    std::int32_t idx = find(sh, p);
    if (idx < 0) {
      auto alloc = allocate_frame(sh, p, start, completion);
      if (!alloc.is_ok()) return alloc.status();
      idx = static_cast<std::int32_t>(*alloc);
      Frame& fr = sh.frames[static_cast<std::size_t>(idx)];
      fr.klass = probe(p * ps).klass;
      fr.valid_lo = fr.dirty_lo = lo;
      fr.valid_hi = fr.dirty_hi = hi;
      ++sh.dirty;
    } else {
      Frame& fr = sh.frames[static_cast<std::size_t>(idx)];
      const bool was_dirty = fr.dirty_hi > fr.dirty_lo;
      if (lo <= fr.valid_hi && fr.valid_lo <= hi) {
        // Touches the valid hull: widen it.  The dirty hull may widen across
        // clean-but-valid bytes — those equal the stored bytes, so flushing
        // the widened hull rewrites them verbatim (content-idempotent).
        fr.valid_lo = std::min(fr.valid_lo, lo);
        fr.valid_hi = std::max(fr.valid_hi, hi);
        if (was_dirty) {
          fr.dirty_lo = std::min(fr.dirty_lo, lo);
          fr.dirty_hi = std::max(fr.dirty_hi, hi);
          ++metrics_.coalesced_writes;
        } else {
          fr.dirty_lo = lo;
          fr.dirty_hi = hi;
          ++sh.dirty;
        }
      } else {
        // Disjoint from everything valid: flushing first (if dirty) keeps
        // the hull invariant dirty ⊆ valid without caching garbage gaps.
        if (was_dirty) {
          flush_victims_.clear();
          flush_victims_.push_back(static_cast<std::uint32_t>(idx));
          auto f = flush_victims(sh, start, FlushTrigger::kConflict);
          if (!f.is_ok()) return f.status();
          completion = std::max(completion, *f);
        }
        fr.valid_lo = fr.dirty_lo = lo;
        fr.valid_hi = fr.dirty_hi = hi;
        ++sh.dirty;
      }
    }
    Frame& fr = sh.frames[static_cast<std::size_t>(idx)];
    std::memcpy(frame_data(sh, static_cast<std::uint32_t>(idx)) + lo,
                data + (p * ps + lo - offset), hi - lo);
    fr.rank = rank;
    fr.job = job;
    fr.deadline = std::min(fr.deadline, deadline);
    fr.ref = ref_boost(fr.klass);
    fr.prefetched = false;
    sh.min_deadline = std::min(sh.min_deadline, fr.deadline);
    ++metrics_.absorbed_writes;
  }

  const std::size_t high =
      static_cast<std::size_t>(config_.dirty_high * static_cast<double>(config_.num_pages));
  if (sh.dirty > high) {
    auto f = flush_pressure(sh, start);
    if (!f.is_ok()) return f.status();
    completion = std::max(completion, *f);
  }
  mpi_->advance(rank, completion);
  return io::OpResult{start, completion};
}

// ---------------------------------------------------------------- bypass ---

common::Result<io::OpResult> CachedFile::bypass(int rank, common::OpType op,
                                                common::Offset offset, std::uint8_t* out,
                                                const std::uint8_t* data,
                                                common::ByteCount size, common::JobId job,
                                                common::Seconds deadline) {
  Shard& sh = shard_of(rank);
  const common::Seconds now = mpi_->now(rank);
  auto f = flush_overlap(sh, offset, size, now, FlushTrigger::kConflict);
  if (!f.is_ok()) return f.status();
  const common::ByteCount ps = config_.page_size;
  for (std::size_t i = 0; i < sh.frames.size(); ++i) {
    const Frame& fr = sh.frames[i];
    if (fr.page == kNoPage) continue;
    const common::Offset base = fr.page * ps;
    if (base < offset + size && offset < base + ps) {
      ++metrics_.invalidated_pages;
      drop_frame(sh, static_cast<std::uint32_t>(i));
    }
  }
  ++metrics_.bypasses;
  return op == common::OpType::kRead ? file_->read_at(rank, offset, out, size, job, deadline)
                                     : file_->write_at(rank, offset, data, size, job, deadline);
}

// ------------------------------------------------------- epochs/migration ---

common::Result<common::Seconds> CachedFile::epoch_close(bool force) {
  if (config_.mode != ConsistencyMode::kCloseToOpen && !force) return mpi_->max_time();
  const common::Seconds issue = mpi_->max_time();
  auto f = flush_all(issue);
  if (!f.is_ok()) return f.status();
  const common::Seconds completion = *f;
  invalidate_all();
  for (int r = 0; r < mpi_->world_size(); ++r) mpi_->advance(r, completion);
  return completion;
}

common::Result<common::Seconds> CachedFile::prepare_migration(common::Offset offset,
                                                              common::ByteCount size,
                                                              common::Seconds issue) {
  common::Seconds completion = issue;
  for (Shard& sh : shards_) {
    auto f = flush_overlap(sh, offset, size, issue, FlushTrigger::kSync);
    if (!f.is_ok()) return f.status();
    completion = std::max(completion, *f);
  }
  return completion;
}

void CachedFile::invalidate(common::Offset offset, common::ByteCount size) {
  const common::ByteCount ps = config_.page_size;
  for (Shard& sh : shards_) {
    for (std::size_t i = 0; i < sh.frames.size(); ++i) {
      const Frame& fr = sh.frames[i];
      if (fr.page == kNoPage) continue;
      const common::Offset base = fr.page * ps;
      if (base < offset + size && offset < base + ps) {
        ++metrics_.invalidated_pages;
        drop_frame(sh, static_cast<std::uint32_t>(i));
      }
    }
    sh.min_deadline = kInf;
    for (const Frame& fr : sh.frames) {
      if (fr.dirty_hi > fr.dirty_lo) sh.min_deadline = std::min(sh.min_deadline, fr.deadline);
    }
  }
  // Placement may have changed under the dropped pages: re-probe lazily.
  last_probe_start_ = kNoPage;
  file_class_.clear();
}

void CachedFile::invalidate_all() {
  for (Shard& sh : shards_) {
    for (std::size_t i = 0; i < sh.frames.size(); ++i) {
      if (sh.frames[i].page != kNoPage) {
        ++metrics_.invalidated_pages;
        drop_frame(sh, static_cast<std::uint32_t>(i));
      }
    }
    sh.min_deadline = kInf;
  }
  last_probe_start_ = kNoPage;
  file_class_.clear();
}

// --------------------------------------------------- test introspection ---

bool CachedFile::is_cached(int rank, common::Offset offset) const {
  const Shard& sh = shard_of(rank);
  return find(sh, offset / config_.page_size) >= 0;
}

bool CachedFile::is_dirty(int rank, common::Offset offset) const {
  const Shard& sh = shard_of(rank);
  const std::int32_t idx = find(sh, offset / config_.page_size);
  if (idx < 0) return false;
  const Frame& fr = sh.frames[static_cast<std::size_t>(idx)];
  return fr.dirty_hi > fr.dirty_lo;
}

PageClass CachedFile::cached_class(int rank, common::Offset offset) const {
  const Shard& sh = shard_of(rank);
  const std::int32_t idx = find(sh, offset / config_.page_size);
  return sh.frames[static_cast<std::size_t>(idx)].klass;
}

std::size_t CachedFile::dirty_pages(int rank) const { return shard_of(rank).dirty; }

}  // namespace mha::cache
