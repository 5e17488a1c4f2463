// The Data Reordering Table of §III-E.
//
// Tracks where each byte range of the original file now lives: "Each entry
// in DRT includes five important variables. O_file and O_offset are the file
// name and the offset of the data in the original file, R_file and R_offset
// are the file name and the offset of the data in the reordered region.
// Length is the size of the data."
//
// One Drt instance covers one original file (so O_file is held once).  The
// entries form a non-overlapping interval map over the original file's
// offsets, stored as a *flat sorted vector* of POD entries with region-file
// names interned into an id table — the request hot path never touches a
// tree node or copies a string.  Lookups split a request into redirected
// segments, with uncovered gaps returned as passthrough segments so
// partially-reordered files keep working.  Persistence goes through the KV
// store (the Berkeley DB stand-in) with one record per entry.
//
// THREAD-SAFETY RULE (the one place it is documented): a Drt instance — and
// everything layered on it (Redirector, OnlineMha, MpiFile, HybridPfs) — is
// a single-client object.  lookup() mutates a sequential-access hint under
// const, so concurrent lookups must use distinct instances; the parallel
// bench grids satisfy this by giving every cell its own deployment.  The
// hint is a plain index into the flat vector, so copies and moves inherit it
// safely (a stale index is only ever a cache miss, never a dangling
// iterator) and all special members are the defaults.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "kv/kvstore.hpp"

namespace mha::core {

/// Index into a Drt's interned region-file name table.
using RegionId = std::uint32_t;

/// Region id carried by passthrough (gap) segments.
inline constexpr RegionId kNoRegion = static_cast<RegionId>(-1);

/// The public exchange form of one table entry (insert/entries/persistence).
struct DrtEntry {
  common::Offset o_offset = 0;      ///< start in the original file
  common::ByteCount length = 0;
  std::string r_file;               ///< reordered region file name
  common::Offset r_offset = 0;      ///< start in the region file
  /// Runtime-only flag (not persisted): the region copy has been overwritten
  /// through the redirector since migration, so the original file's bytes
  /// for this range are stale and must not be used as a repair source.
  bool dirty = false;
  /// Failover copy of the region this entry points into ("" = unreplicated).
  /// Persisted: a replica recorded in the DRT survives restarts with it.
  std::string replica_file{};

  friend bool operator==(const DrtEntry&, const DrtEntry&) = default;
};

/// One piece of a translated request.  POD: the region file is named by its
/// interned id (resolve via Drt::region_name / a Redirector's file-id table).
struct DrtSegment {
  bool redirected = false;          ///< false => read/write the original file
  RegionId region = kNoRegion;      ///< kNoRegion for passthrough
  common::Offset target_offset = 0; ///< offset in the region (or the original)
  common::ByteCount length = 0;
  common::Offset logical_offset = 0;  ///< position within the original file
  /// Interned id of the region's failover replica file (kNoRegion when the
  /// region is unreplicated or the segment is passthrough).  Rides along in
  /// the same POD so replica-aware callers pay no extra lookup.
  RegionId replica = kNoRegion;
};

class Drt {
 public:
  /// Caller-owned lookup scratch: inline room for the common split widths,
  /// heap spill (retained across clear) beyond that.
  using SegmentVec = common::SmallVec<DrtSegment, 8>;

  Drt() = default;
  explicit Drt(std::string o_file) : o_file_(std::move(o_file)) {}

  const std::string& o_file() const { return o_file_; }

  /// Inserts an entry; rejects zero-length and ranges overlapping an
  /// existing entry ("DRT is updated each time a data location has been
  /// changed" — locations are unique).  Appends are O(1); out-of-order
  /// inserts shift the flat tail (build-time cost only).
  common::Status insert(DrtEntry entry);

  /// Splits [offset, offset+size) into contiguous segments covering it
  /// exactly, in ascending logical order, appending into the caller's
  /// scratch (cleared first).  Redirected pieces point into region files;
  /// gaps come back as passthrough (target_offset == logical offset in the
  /// original file).  Zero heap allocations once `out` has warmed up.
  ///
  /// Caches the index of the last-hit entry so sequential access patterns
  /// (the common replay case) resolve their start point in O(1) instead of
  /// O(log n).  See the thread-safety rule in the header comment.
  void lookup(common::Offset offset, common::ByteCount size, SegmentVec& out) const;

  /// Convenience wrapper for tests and build-time callers.
  std::vector<DrtSegment> lookup(common::Offset offset, common::ByteCount size) const;

  /// Caller-owned position for a batch of lookups.  The per-instance hint_
  /// remembers only the single last lookup, so interleaved streams (or a
  /// batch translate restarted from offset 0 every iteration) degrade to the
  /// binary-search path.  A cursor pins the position to *one* offset-sorted
  /// stream: lookup(..., cursor) resolves the start entry by galloping
  /// forward from the cursor's index (O(log gap), O(1) for adjacent
  /// requests) and falls back to binary search only when the stream moved
  /// backwards.  Value-semantic and trivially copyable; a stale cursor is
  /// only ever a cache miss.
  struct LookupCursor {
    std::size_t index = 0;
  };

  /// lookup() with a caller-owned cursor instead of the shared hint.  Batch
  /// translates sort their requests by offset and walk one cursor across
  /// them, so every request after the first resolves its start entry on the
  /// sequential path.
  void lookup(common::Offset offset, common::ByteCount size, SegmentVec& out,
              LookupCursor& cursor) const;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Interned region-file name table.  Replica files are interned in the
  /// same table (they are resolved to file ids by the same Redirector pass),
  /// so region_count() includes them; replica_of_region() tells them apart.
  std::size_t region_count() const { return region_names_.size(); }
  const std::string& region_name(RegionId id) const { return region_names_[id]; }

  /// Records `replica_file` as the failover copy of region `r_file`: the
  /// replica name is interned and stamped into the replica column of every
  /// entry pointing into that region.  The replica shares the region's
  /// logical byte space (byte k of the region == byte k of the replica).
  common::Status set_replica(const std::string& r_file, const std::string& replica_file);

  /// Interned replica of a region; kNoRegion when unreplicated.
  RegionId replica_of_region(RegionId region) const {
    return region < region_replica_.size() ? region_replica_[region] : kNoRegion;
  }

  /// Renames an interned region (or replica) file in place — the rebuild
  /// retarget: every entry referencing the id now resolves to `new_name`,
  /// with no entry rewrite.  Fails when `old_name` is unknown or `new_name`
  /// is already interned.
  common::Status retarget_region(const std::string& old_name, const std::string& new_name);

  /// Total bytes covered by entries (tracked incrementally; O(1)).
  common::ByteCount covered_bytes() const { return covered_bytes_; }

  /// Marks every entry overlapping [offset, offset+size) dirty: its region
  /// bytes have diverged from the original file (see DrtEntry::dirty).
  /// Called by the redirector on every intercepted write; O(entries touched)
  /// and allocation-free, so the request hot path stays zero-alloc.
  void mark_dirty(common::Offset offset, common::ByteCount size);

  /// Number of dirty entries (scrub/bench introspection).
  std::size_t dirty_entries() const;

  /// Approximate metadata footprint (for §V-E.2's space analysis): the paper
  /// charges 6*4 bytes per entry; ours charges the exchange-entry size plus
  /// the region name per entry, matching what save() persists.  (The
  /// in-memory flat entry is smaller — names are stored once.)
  std::size_t metadata_bytes() const;

  /// Entries in ascending o_offset order (exchange form, names resolved).
  std::vector<DrtEntry> entries() const;

  /// Persists every entry under keys "<o_file>#<o_offset>".
  common::Status save(kv::KvStore& store) const;

  /// Rebuilds a table for `o_file` from a store previously filled by save().
  static common::Result<Drt> load(kv::KvStore& store, const std::string& o_file);

 private:
  /// In-memory entry: POD, 40 bytes, names interned.
  struct FlatEntry {
    common::Offset o_offset = 0;
    common::ByteCount length = 0;
    common::Offset r_offset = 0;
    RegionId region = 0;
    RegionId replica = kNoRegion;  ///< failover copy; see DrtEntry::replica_file
    std::uint8_t dirty = 0;  ///< fits the trailing padding; see DrtEntry::dirty

    common::Offset o_end() const { return o_offset + length; }
  };

  /// First index whose o_offset is > pos (branchless binary search).
  std::size_t first_after(common::Offset pos) const;

  /// Emits the segments of [pos, end) starting the entry walk at `idx` (the
  /// last entry with o_offset <= pos, or 0/n when none); returns the index
  /// of the last entry consumed (n when the range fell entirely in a gap).
  /// The shared body of both lookup() flavours.
  std::size_t fill_segments(common::Offset pos, common::Offset end, std::size_t idx,
                            SegmentVec& out) const;

  RegionId intern(const std::string& name);

  std::string o_file_;
  // Ascending o_offset; invariant: non-overlapping.
  std::vector<FlatEntry> entries_;
  std::vector<std::string> region_names_;
  std::unordered_map<std::string, RegionId> region_ids_;  // insert-time only
  /// RegionId -> interned replica id (kNoRegion), index-parallel with
  /// region_names_ (grown by intern).
  std::vector<RegionId> region_replica_;
  common::ByteCount covered_bytes_ = 0;
  // Sequential-lookup cache: index of the last entry the previous lookup
  // consumed.  Mutated under const (see header comment); always validated
  // against the current vector before use, so stale values are harmless.
  mutable std::size_t hint_ = 0;
};

}  // namespace mha::core
