// The hybrid parallel file system facade (OrangeFS stand-in).
//
// Wires the metadata server to a row of data servers — `num_hservers`
// HDD-backed ones first, then `num_sservers` SSD-backed ones, matching the
// paper's S0..S5 = HServers / S6..S7 = SServers numbering — and exposes the
// client view: create/open a striped file, read/write byte extents.  Every
// operation carries a virtual arrival time and returns its virtual
// completion time; bytes are stored exactly so data integrity is testable
// end to end.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "fault/context.hpp"
#include "guard/guard.hpp"
#include "pfs/data_server.hpp"
#include "pfs/metadata_server.hpp"
#include "sched/scheduler.hpp"
#include "sim/cluster_sim.hpp"

namespace mha::repair {
class Membership;
}  // namespace mha::repair

namespace mha::pfs {

/// Outcome of one file request.
struct IoResult {
  common::Seconds completion = 0.0;  ///< when the slowest sub-request finished
  std::size_t servers_touched = 0;
  std::size_t sub_requests = 0;
};

/// One request of a batched read_batch/write_batch call.  `group` ties
/// together sibling segments that one middleware request was split into:
/// when a group member fails, later members of the same group are skipped
/// (exactly what the serial client does when it stops at the first failing
/// segment).  Groups must be contiguous in the batch and independent
/// requests must use distinct group ids — MpiFile assigns the record index.
struct BatchRequest {
  common::FileId file = 0;
  common::Offset offset = 0;
  common::ByteCount size = 0;
  /// Destination for read_batch (ignored by write_batch).
  std::uint8_t* read_out = nullptr;
  /// Payload for write_batch (ignored by read_batch).
  const std::uint8_t* write_data = nullptr;
  common::Seconds arrival = 0.0;
  common::JobId job = common::kDefaultJob;
  common::Seconds deadline = std::numeric_limits<double>::infinity();
  std::uint32_t group = 0;
};

/// Per-request outcome of a batched call, index-parallel to the input span.
struct BatchOpResult {
  common::Status status;
  IoResult io;
  /// True when the request was never issued because an earlier member of
  /// its group failed; `status` stays ok and `io` is zero.
  bool skipped = false;
};

using BatchResultVec = common::SmallVec<BatchOpResult, 8>;

struct PfsOptions {
  /// Optional KV file persisting per-file layouts (the RST).
  std::string rst_path;
  /// When false the data servers are timing-only (see DataServer).
  bool store_data = true;
};

/// Everything the failover machinery decided (FaultMetrics style): reads
/// retargeted from dead servers to replicas, writes mirrored to keep
/// replicas coherent, and requests that found no surviving copy.
struct FailoverStats {
  std::uint64_t failover_reads = 0;   ///< replica sub-reads serving a dead primary
  common::ByteCount failover_bytes = 0;
  std::uint64_t failover_writes = 0;  ///< primary sub-writes skipped (dead server)
  std::uint64_t mirrored_writes = 0;  ///< replica sub-writes keeping copies in sync
  common::ByteCount mirror_bytes = 0;
  std::uint64_t unavailable = 0;      ///< requests with no surviving copy
};

class HybridPfs {
 public:
  explicit HybridPfs(const sim::ClusterConfig& config, PfsOptions options = {});
  /// Back-compat convenience: options default except the RST path.
  HybridPfs(const sim::ClusterConfig& config, std::string rst_path);

  std::size_t num_servers() const { return servers_.size(); }
  std::size_t num_hservers() const { return num_hservers_; }
  std::size_t num_sservers() const { return servers_.size() - num_hservers_; }
  bool is_hserver(std::size_t i) const { return i < num_hservers_; }

  const sim::ClusterConfig& config() const { return config_; }

  MetadataServer& mds() { return mds_; }
  const MetadataServer& mds() const { return mds_; }
  DataServer& data_server(std::size_t i) { return *servers_[i]; }
  const DataServer& data_server(std::size_t i) const { return *servers_[i]; }

  /// Attaches a client-side I/O scheduler (borrowed; may be nullptr).  When
  /// set, every read/write dispatches its sub-requests through the policy;
  /// null keeps the direct FCFS-at-arrival path.
  void set_scheduler(sched::Scheduler* scheduler) { scheduler_ = scheduler; }
  sched::Scheduler* scheduler() const { return scheduler_; }

  /// The scheduler-facing view over this cluster's server queues.
  const sched::ServerRow& server_row() const { return row_; }

  /// Attaches an overload guard (borrowed; may be nullptr).  While set, the
  /// charge stage consults the guard's admission gate for every request
  /// (shedding with a typed kOverloaded Status before any server is
  /// charged), feeds backlog observations to the per-server breakers, and —
  /// with a fault context attached too — reroutes HServer reads away from
  /// open breakers and spends retry tokens for every backoff retry.  It
  /// enforces each request's deadline by cancelling already-charged siblings
  /// when a sub-request would complete past it.  A guard makes batches run
  /// one request at a time, so the guard picks its victims request by
  /// request.
  void set_guard(guard::OverloadGuard* g) { guard_ = g; }
  guard::OverloadGuard* guard() const { return guard_; }

  /// Attaches a fault context (borrowed; may be nullptr).  While set, every
  /// server queue consults the context's injector (crashes push start times,
  /// brownouts inflate service — visible to scheduler look-ahead), stored
  /// sub-extents draw silent write faults, and the charge stage runs
  /// degraded: transient failures retry with capped exponential backoff
  /// under a virtual-time budget, reads from offline HServers re-charge to
  /// the least-loaded online SServer, writes to offline servers park in the
  /// redo log and replay on recovery.  Like a guard, a fault context makes
  /// batches run one request at a time, so every RNG draw keeps its order.
  void set_fault_context(fault::FaultContext* fault);
  fault::FaultContext* fault_context() const { return fault_; }

  /// Attaches a cluster membership view (borrowed; may be nullptr).  While
  /// set, every sub-request targeting a dead server fails over: reads
  /// retarget to the file's registered replica (exact per-job charge
  /// attribution — the replica's servers are charged under the requester's
  /// job), writes mirror to the replica so copies stay coherent, and
  /// requests over dead unreplicated data surface a typed kUnavailable.
  /// With no dead servers the request path pays one pointer test.
  void set_membership(const repair::Membership* membership) { membership_ = membership; }
  const repair::Membership* membership() const { return membership_; }

  /// Registers `replica` as the failover copy of `primary`.  The replica
  /// must cover the same logical byte space (byte k of primary == byte k of
  /// replica); the Redirector registers region replicas from the DRT's
  /// replica column.  Flat-array lookup, zero-alloc on the request path.
  void set_replica(common::FileId primary, common::FileId replica);
  void clear_replica(common::FileId primary);
  /// Replica of `primary`, kInvalidFileId when unreplicated.
  common::FileId replica_of(common::FileId primary) const {
    return primary < replica_of_.size() ? replica_of_[primary] : common::kInvalidFileId;
  }

  const FailoverStats& failover_stats() const { return failover_stats_; }
  void reset_failover_stats() { failover_stats_ = FailoverStats{}; }

  /// Drops every extent stored on server `server` — the content-plane half
  /// of permanent loss (repair::kill_server calls this so the data is
  /// really gone, not just unreachable).
  void wipe_server(std::size_t server);

  /// Creates a file with the given layout (layout width count must equal the
  /// server count).
  common::Result<common::FileId> create_file(const std::string& name,
                                             StripeLayout layout);

  /// Creates with the default fixed 64 KiB stripes (the DEF scheme).
  common::Result<common::FileId> create_file(const std::string& name);

  common::Result<common::FileId> open(const std::string& name) const;

  /// One-request batches through write_batch/read_batch's stages.  `job`
  /// is the tenant the server charges are billed to; `deadline` is the
  /// request's end-to-end deadline in virtual seconds (infinity disables;
  /// enforced only while a guard is attached).  Both travel in the request,
  /// so single-tenant callers leave them defaulted.
  common::Result<IoResult> write(common::FileId file, common::Offset offset,
                                 const std::uint8_t* data, common::ByteCount size,
                                 common::Seconds arrival,
                                 common::JobId job = common::kDefaultJob,
                                 common::Seconds deadline =
                                     std::numeric_limits<double>::infinity());

  common::Result<IoResult> read(common::FileId file, common::Offset offset,
                                std::uint8_t* out, common::ByteCount size,
                                common::Seconds arrival,
                                common::JobId job = common::kDefaultJob,
                                common::Seconds deadline =
                                    std::numeric_limits<double>::infinity());

  /// The request path.  Each request runs the same stages in order:
  /// translate (dead-server subs retarget to the replica for reads or are
  /// mirrored onto it for writes; a request with no surviving copy fails
  /// here and touches nothing), then store (writes) or verify-and-load
  /// (reads), then admit, then charge, then complete.  A failed request
  /// skips the later members of its group.
  ///
  /// The stages run at one of two granularities.  With no guard and no
  /// fault context the whole batch is one unit: one translate pass,
  /// per-(server, file) coalesced content-plane ops (one store_batch or one
  /// merged verify_range per physical run), then the charges in batch
  /// order.  Nothing after the content plane can fail there, so moving it
  /// ahead of the timing plane is unobservable.  With a guard or a fault
  /// context attached — and after a coalesced run fails verification — the
  /// stages run one request at a time, so admission, deadlines, fault RNG
  /// draws and the exact per-sub corruption Status happen in request order.
  /// Either way the results equal issuing the requests one by one.
  /// `results` is cleared and filled index-parallel to `reqs`.  Zero heap
  /// allocations in the steady state: all scratch is owned by this
  /// HybridPfs and retains capacity across batches.
  void write_batch(std::span<const BatchRequest> reqs, BatchResultVec& results);
  void read_batch(std::span<const BatchRequest> reqs, BatchResultVec& results);

  /// Convenience byte-vector overloads.
  common::Result<IoResult> write(common::FileId file, common::Offset offset,
                                 const std::vector<std::uint8_t>& data,
                                 common::Seconds arrival);
  common::Result<std::vector<std::uint8_t>> read_bytes(common::FileId file,
                                                       common::Offset offset,
                                                       common::ByteCount size,
                                                       common::Seconds arrival);

  common::Status remove(const std::string& name);

  common::ByteCount file_size(common::FileId file) const { return mds_.info(file).size; }

  /// Total bytes of `file` stored across all servers.
  common::ByteCount stored_bytes(common::FileId file) const;

  /// Per-server timing statistics (the measurement window for every bench).
  void reset_stats();
  /// Rewinds every server queue to empty at t=0.
  void reset_clocks();
  const sim::ServerStats& server_stats(std::size_t i) const {
    return servers_[i]->sim().stats();
  }
  std::string stats_table() const;

 private:
  /// One translated sub-extent of one batch request: a primary stripe piece,
  /// or a replica piece (a retargeted read or a mirrored write) whose `file`
  /// is the replica.
  struct BatchSub {
    std::uint32_t req = 0;  ///< index into the stage's request span
    std::uint32_t server = 0;
    common::FileId file = 0;
    common::Offset physical_offset = 0;
    common::ByteCount length = 0;
    common::Offset logical_offset = 0;
  };
  /// Cancellation receipt of one charged sub-request.
  struct SubCharge {
    std::size_t server = 0;
    sim::Charge charge;
  };

  /// Picks the granularity (see write_batch) and runs the stages.
  void run_batch(common::OpType op, std::span<const BatchRequest> reqs,
                 BatchResultVec& results);
  /// Runs every stage over `reqs` as one unit.  False only when a
  /// multi-request read failed verification; nothing has been loaded or
  /// charged then, and the caller reruns the requests one at a time.
  bool run_stages(common::OpType op, std::span<const BatchRequest> reqs,
                  std::span<BatchOpResult> out);
  /// Translate stage: validates file ids and maps every request's extent
  /// into batch_subs_ (per-request ranges in batch_sub_begin_).  Dead-server
  /// subs retarget to replica subs (reads) or are replaced by mirror subs
  /// (writes, which mirror on live primaries too); a request with no
  /// surviving copy fails with kUnavailable and contributes no subs.
  /// Returns false when no request survived.
  bool translate(common::OpType op, std::span<const BatchRequest> reqs,
                 std::span<BatchOpResult> out);
  /// Write content stage.  With a fault context every primary sub draws its
  /// silent write fault and is stored on its own, in translate order;
  /// otherwise each (server, file) group goes through one store_batch.
  void store(std::span<const BatchRequest> reqs, std::span<const BatchOpResult> out);
  /// Read content stage: verifies each coalesced physical run once, then
  /// loads.  A single request that fails verification re-loads sub by sub
  /// with load_verified for the exact Status; a multi-request batch returns
  /// false instead.
  bool load(std::span<const BatchRequest> reqs, std::span<BatchOpResult> out);
  /// Admit + charge stage of one translated request (`index` into the stage
  /// span): redo replay and the admission gate, then the per-server
  /// charges — through the scheduler or directly, with the degraded retry /
  /// reroute / redo loop under a fault context — enforcing the request's
  /// deadline by rewinding its receipts.
  common::Status charge(common::OpType op, const BatchRequest& r, std::size_t index,
                        IoResult& result);
  /// Charges one resolved sub-request at `t` (scheduler or direct path) and
  /// collects its cancellation receipt in receipts_.
  void charge_sub(common::OpType op, std::size_t server, common::ByteCount bytes,
                  common::Seconds t, common::JobId job, IoResult& result);
  /// Cancels every receipt collected for the current request, newest first
  /// (LIFO, the only order try_cancel can unwind).  Charges that later
  /// admissions baked in stay — those bytes are marked wasted on their
  /// server (and the guard's ledger when one is attached).
  void rewind_receipts();
  /// Least-backlog online SServer whose breaker is closed (the degraded-read
  /// and breaker-reroute fallback target); servers_.size() when none.
  std::size_t pick_fallback_sserver(common::Seconds t) const;
  /// True when a membership view is attached and reports at least one dead
  /// server — the only case the failover branches are entered.
  bool failover_active() const;

  sim::ClusterConfig config_;
  MetadataServer mds_;
  std::vector<std::unique_ptr<DataServer>> servers_;
  std::size_t num_hservers_ = 0;
  sched::Scheduler* scheduler_ = nullptr;
  fault::FaultContext* fault_ = nullptr;
  guard::OverloadGuard* guard_ = nullptr;
  const repair::Membership* membership_ = nullptr;
  /// FileId -> replica FileId (kInvalidFileId), grown by set_replica only.
  std::vector<common::FileId> replica_of_;
  FailoverStats failover_stats_;
  sched::ServerRow row_;
  // Request-path scratch, reused across calls so the steady state performs
  // zero heap allocations per request.  Same single-client rule as Drt's
  // lookup hint: a HybridPfs may be shared across threads only with
  // external synchronisation (the bench harness gives each thread its own
  // world, so this is free there).
  std::vector<common::ByteCount> per_server_;
  StripeLayout::SubExtentVec extents_;
  /// Second mapping scratch for replica extents (nested inside the extents_
  /// walk, so it cannot share).
  StripeLayout::SubExtentVec failover_extents_;
  common::SmallVec<sim::SubRequest, 8> subs_;
  /// Cancellation receipts of the in-flight request's charged siblings.
  common::SmallVec<SubCharge, 8> receipts_;
  common::SmallVec<BatchSub, 32> batch_subs_;
  /// Per-request [begin, end) ranges into batch_subs_ (size = reqs + 1).
  common::SmallVec<std::uint32_t, 16> batch_sub_begin_;
  /// Sorted copy of batch_subs_ for content-plane grouping/coalescing.
  common::SmallVec<BatchSub, 32> batch_sorted_;
  /// Per-(server, file) slice list handed to DataServer::store_batch.
  common::SmallVec<ExtentStore::IoSlice, 32> batch_slices_;
};

/// The file-system default stripe size (OrangeFS ships 64 KiB).
inline constexpr common::ByteCount kDefaultStripe = 64 * 1024;

/// Copies `length` bytes of `from` starting at `from_offset` to `to` starting
/// at `to_offset`, in pieces of at most `chunk` bytes: each piece is read at
/// `clock` and written at the read's completion, and `clock` advances to the
/// write's completion.  `buffer` is caller-owned scratch.  Both halves are
/// charged to `job` with no deadline.  The placer, online foldback and
/// migration recovery move data this way on job 0; the rebuilder passes its
/// QoS job.
common::Status copy_range(HybridPfs& pfs, common::FileId from, common::Offset from_offset,
                          common::FileId to, common::Offset to_offset,
                          common::ByteCount length, common::ByteCount chunk,
                          std::vector<std::uint8_t>& buffer, common::Seconds& clock,
                          common::JobId job = common::kDefaultJob);

}  // namespace mha::pfs
