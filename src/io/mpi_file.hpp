// MPI-IO-like file handle with the two interposition points MHA needs.
//
// Mirrors the paper's implementation (§IV-B): the modified MPI library loads
// the DRT at MPI_Init and consults it inside MPI_File_read/write so requests
// are "atomically forwarded to the alternative file servers".  Here the DRT
// consultation is abstracted as an IoInterceptor so the middleware does not
// depend on the MHA core; the core's Redirector implements it.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "io/mpi_sim.hpp"
#include "io/tracer.hpp"
#include "pfs/file_system.hpp"

namespace mha::io {

/// One physical piece a logical request was translated into.
struct RedirectSegment {
  common::FileId file = common::kInvalidFileId;
  common::Offset offset = 0;      ///< offset in the target file
  common::ByteCount length = 0;
  common::Offset logical_offset = 0;  ///< where this piece sits in the request

  friend bool operator==(const RedirectSegment&, const RedirectSegment&) = default;
};

/// Caller-owned translation scratch: inline room for the common request
/// widths, heap spill (retained across clear) beyond that — a reused buffer
/// makes translation allocation-free in steady state.
using SegmentList = common::SmallVec<RedirectSegment, 8>;

/// Opaque resume position threaded through a stream of translations (an
/// MpiFile keeps one per handle).  A batch translated in ascending-offset
/// order with one shared cursor lets a table-backed interceptor resume each
/// lookup where the previous one ended (the Drt sequential-hint path)
/// instead of binary-searching from scratch per request.  Value-semantic
/// and cheap; a stale cursor is only a cache miss, never a correctness
/// problem.
struct TranslateCursor {
  std::size_t index = 0;
};

/// Translates logical extents of the original file into physical segments.
/// The default behaviour (no interceptor) is the identity mapping onto the
/// original file.
class IoInterceptor {
 public:
  virtual ~IoInterceptor() = default;

  /// Splits [offset, offset+size) into target segments covering it exactly,
  /// in ascending logical order, appending into the caller's scratch
  /// (cleared first).
  virtual void translate(common::Offset offset, common::ByteCount size,
                         SegmentList& out) = 0;

  /// Cursor-carrying variant used by the batched path.  Interceptors that
  /// can exploit positional locality override this (core::Redirector maps
  /// the cursor onto Drt::LookupCursor); the default ignores the cursor.
  virtual void translate(common::Offset offset, common::ByteCount size, SegmentList& out,
                         TranslateCursor& cursor) {
    (void)cursor;
    translate(offset, size, out);
  }

  /// Convenience wrapper (tests / cold paths): translate into a fresh list.
  SegmentList translate(common::Offset offset, common::ByteCount size) {
    SegmentList out;
    translate(offset, size, out);
    return out;
  }

  /// Virtual seconds of lookup cost charged per translated request (the
  /// paper's "redirection phase" overhead, Fig. 14).
  virtual common::Seconds lookup_overhead() const { return 0.0; }

  /// Notifies the interceptor that [offset, offset+size) of the original
  /// file was overwritten through this handle.  The MHA redirector uses this
  /// to mark DRT entries dirty: once a region copy diverges from the
  /// original, the scrubber must not "repair" the region from the stale
  /// origin bytes.  Default: no-op (identity mapping has no second copy).
  virtual void note_write(common::Offset offset, common::ByteCount size) {
    (void)offset;
    (void)size;
  }

  /// Human-readable placement of one logical offset ("region <name> @<off>"
  /// or "passthrough @<off>"), for verification-failure diagnostics.  Cold
  /// path only; default: empty (no mapping attached).
  virtual std::string locate(common::Offset offset) const {
    (void)offset;
    return std::string();
  }
};

/// Per-op result at the middleware layer.
struct OpResult {
  common::Seconds start = 0.0;
  common::Seconds completion = 0.0;
  common::Seconds duration() const { return completion - start; }
};

/// One logical request of a collective batch (read_at_batch /
/// write_at_batch).  All ops of one batch MUST target distinct ranks — each
/// rank's clock is read once at batch start and advanced once at the end,
/// so two ops on the same rank would both issue at the same instant instead
/// of serializing (the replayer enforces this by splitting its per-iteration
/// plan into distinct-rank runs).
struct BatchOp {
  int rank = 0;
  common::Offset offset = 0;
  common::ByteCount size = 0;
  std::uint8_t* read_out = nullptr;         ///< read_at_batch destination
  const std::uint8_t* write_data = nullptr; ///< write_at_batch payload
  /// Tenant the op's server charges are billed to.
  common::JobId job = common::kDefaultJob;
  /// End-to-end deadline in virtual seconds (infinity disables; enforced
  /// only while the pfs has a guard attached).
  common::Seconds deadline = std::numeric_limits<double>::infinity();
};

/// Per-op outcome of a batched call, index-parallel to the input span.  An
/// op whose pfs segments all succeeded carries the serial-identical OpResult
/// and its rank's clock was advanced; a failed op leaves its rank's clock
/// untouched, exactly like the serial error path.
struct BatchOpOutcome {
  common::Status status;
  OpResult op;
};

using BatchOutcomeVec = common::SmallVec<BatchOpOutcome, 8>;

/// One op of a single-client vectored dispatch (dispatch_bulk).  Unlike
/// BatchOp there is no rank: every op of the call issues at the same virtual
/// instant on behalf of one client — the shape of a cache tier flushing
/// coalesced dirty runs or issuing one batched prefetch.  `job` attributes
/// the server charges (a flushed page is charged to the job whose write
/// dirtied it, not whoever triggered the flush).
struct BulkOp {
  common::Offset offset = 0;
  common::ByteCount size = 0;
  std::uint8_t* read_out = nullptr;         ///< read destination
  const std::uint8_t* write_data = nullptr; ///< write payload
  common::JobId job = common::kDefaultJob;
  common::Seconds deadline = std::numeric_limits<double>::infinity();
};

/// Per-op outcome of dispatch_bulk, index-parallel to the input span.
struct BulkOutcome {
  common::Status status;
  common::Seconds completion = 0.0;
};

using BulkOutcomeVec = common::SmallVec<BulkOutcome, 8>;

class MpiFile {
 public:
  /// Opens `name` on `pfs` (must exist).  The handle is shared by all ranks
  /// of `mpi`, like a shared file opened with MPI_File_open(MPI_COMM_WORLD).
  static common::Result<MpiFile> open(pfs::HybridPfs& pfs, MpiSim& mpi,
                                      const std::string& name);

  common::FileId file_id() const { return file_; }
  const std::string& name() const { return name_; }

  /// Attaches the tracing-phase collector (borrowed; may be nullptr).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Attaches the redirection-phase interceptor (borrowed; may be nullptr).
  void set_interceptor(IoInterceptor* interceptor) { interceptor_ = interceptor; }
  IoInterceptor* interceptor() const { return interceptor_; }

  /// Logical size of the underlying file (one past the highest written
  /// byte) — the cache tier's page-in clip.
  common::ByteCount size() const { return pfs_->file_size(file_); }

  /// MPI_File_read_at: issues at the rank's current clock and advances it
  /// to the completion time.  A one-op read_at_batch: `job` and `deadline`
  /// travel in the request (see BatchOp), so single-tenant callers leave
  /// them defaulted.
  common::Result<OpResult> read_at(int rank, common::Offset offset, std::uint8_t* out,
                                   common::ByteCount size,
                                   common::JobId job = common::kDefaultJob,
                                   common::Seconds deadline =
                                       std::numeric_limits<double>::infinity());

  /// MPI_File_write_at, a one-op write_at_batch.
  common::Result<OpResult> write_at(int rank, common::Offset offset,
                                    const std::uint8_t* data, common::ByteCount size,
                                    common::JobId job = common::kDefaultJob,
                                    common::Seconds deadline =
                                        std::numeric_limits<double>::infinity());

  /// Collective batched I/O (MPI_File_read_at_all-shaped): issues every op
  /// of `ops` as ONE batched pfs call.  Each op pays its own client
  /// overheads (tracer + redirection lookup) from its rank's clock; the
  /// batch translates in ascending-offset order under one shared
  /// TranslateCursor (so sorted batches ride the DRT sequential-hint path)
  /// and the pfs layer coalesces across ops and dispatches once per server.
  /// Outcomes — Statuses, timings, traced records, rank clocks — are
  /// identical to calling read_at/write_at in list order.  See BatchOp for
  /// the distinct-ranks requirement.
  void read_at_batch(std::span<const BatchOp> ops, BatchOutcomeVec& results);
  void write_at_batch(std::span<const BatchOp> ops, BatchOutcomeVec& results);

  /// Single-client vectored dispatch: every op issues at virtual instant
  /// `issue` as ONE batched pfs call — translated in ascending-offset order
  /// under a shared cursor, coalesced per server, one dispatch per touched
  /// server.  Charges one redirection lookup per op (as read_at does) but
  /// touches no rank clock and no tracer: the caller owns the
  /// client timeline and folds the returned completions in itself.  This is
  /// the cache tier's flush/prefetch entry point — a write-back flush is
  /// many offset-sorted runs leaving one client at one instant, which the
  /// per-rank batched API cannot express (its ops must target distinct
  /// ranks).
  void dispatch_bulk(common::OpType op, std::span<const BulkOp> ops,
                     common::Seconds issue, BulkOutcomeVec& results);

  /// Convenience: write a byte vector / read into a fresh vector.
  common::Result<OpResult> write_at(int rank, common::Offset offset,
                                    const std::vector<std::uint8_t>& data);
  common::Result<std::vector<std::uint8_t>> read_vec(int rank, common::Offset offset,
                                                     common::ByteCount size);

 private:
  MpiFile(pfs::HybridPfs& pfs, MpiSim& mpi, std::string name, common::FileId file)
      : pfs_(&pfs), mpi_(&mpi), name_(std::move(name)), file_(file) {}

  /// Rank-clock and tracer wrapper around run_ops: every read/write entry
  /// point except dispatch_bulk lands here.
  void do_op_batch(common::OpType op, std::span<const BatchOp> ops,
                   BatchOutcomeVec& results);
  /// read_at/write_at: `o` as a one-op batch.
  common::Result<OpResult> do_one(common::OpType op, const BatchOp& o);
  /// The one translate -> assemble -> pfs batch -> fold implementation.
  /// Op i issues at batch_issue_[i] (filled by the caller); `folded` gets
  /// each op's first failing Status, or its slowest segment's completion.
  template <typename Op>
  void run_ops(common::OpType op, std::span<const Op> ops, BulkOutcomeVec& folded);

  pfs::HybridPfs* pfs_;
  MpiSim* mpi_;
  std::string name_;
  common::FileId file_;
  Tracer* tracer_ = nullptr;
  IoInterceptor* interceptor_ = nullptr;
  int next_fd_ = 3;
  /// Per-handle translation scratch, reused across requests (the handle is
  /// single-client; see the thread-safety rule in core/drt.hpp).
  SegmentList segments_;
  /// Translation position kept across calls, so consecutive one-op calls
  /// on a sequential stream resume the lookup too (stale = a cache miss).
  TranslateCursor cursor_;
  // Batched-path scratch, reused across batches (same single-client rule).
  /// Per-op issue times (rank clock + client overheads, or the bulk
  /// instant + lookup).
  common::SmallVec<common::Seconds, 8> batch_issue_;
  /// Op indices in ascending-offset translation order.
  common::SmallVec<std::uint32_t, 8> batch_order_;
  /// Flat segment store plus per-op (begin, count) ranges into it.
  common::SmallVec<RedirectSegment, 16> seg_store_;
  common::SmallVec<std::pair<std::uint32_t, std::uint32_t>, 8> seg_range_;
  /// The assembled pfs batch (group = op index) and its results.
  common::SmallVec<pfs::BatchRequest, 16> batch_reqs_;
  pfs::BatchResultVec batch_results_;
  /// Folded per-op outcomes of a do_op_batch call.
  BulkOutcomeVec op_outcomes_;
};

}  // namespace mha::io
