// Virtual-time FCFS queue model of one file server.
//
// Each server services sub-requests one at a time in arrival order (a single
// disk/SSD behind a request queue, as in OrangeFS's Trove layer).  A
// sub-request arriving at `arrival` begins at max(arrival, queue drain time)
// and occupies the device for `startup + bytes*(net + per_byte)` — exactly
// the per-server term of the paper's Eq. 2, while queuing across *distinct*
// requests adds the contention the analytic model omits.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/device.hpp"
#include "sim/fault_hook.hpp"

namespace mha::sim {

/// Cumulative per-server counters, reset between measurement windows.
struct ServerStats {
  std::uint64_t sub_requests = 0;
  common::ByteCount bytes_read = 0;
  common::ByteCount bytes_written = 0;
  /// Total device-occupied time (the paper's Fig. 8 "I/O time of each
  /// server").
  common::Seconds busy_time = 0.0;
  /// Total time sub-requests spent waiting behind earlier work.
  common::Seconds queue_wait = 0.0;
  /// Bytes of admitted work whose request was later abandoned (deadline
  /// miss / failed sibling) but could no longer be cancelled — throughput
  /// the server delivered that produced zero goodput.
  common::ByteCount bytes_wasted = 0;

  common::ByteCount bytes_total() const { return bytes_read + bytes_written; }
};

/// One per-job accounting row of a server queue: the share of this server's
/// admitted work owned by a single tenant job.  Rows are created on first
/// touch and reconcile exactly with ServerStats (summing every row's field
/// equals the aggregate), including across try_cancel().
struct JobServerStats {
  std::uint64_t sub_requests = 0;
  common::ByteCount bytes_read = 0;
  common::ByteCount bytes_written = 0;
  common::Seconds busy_time = 0.0;
  common::Seconds queue_wait = 0.0;
  common::ByteCount bytes_wasted = 0;

  common::ByteCount bytes_total() const { return bytes_read + bytes_written; }
};

/// Receipt for one accepted sub-request, enough to undo it.  A hedged read
/// holds the receipts of both copies and cancels the loser's.
struct Charge {
  common::Seconds start = 0.0;
  common::Seconds completion = 0.0;
  common::Seconds service = 0.0;
  common::Seconds wait = 0.0;  ///< start - arrival (time spent queued)
  common::OpType op = common::OpType::kRead;
  common::ByteCount bytes = 0;
  common::JobId job = common::kDefaultJob;  ///< accounting row the charge landed in
  /// Queue drain time before this charge (restored on cancel).
  common::Seconds prev_next_free = 0.0;
  /// Server-local admission sequence number; only the newest charge on a
  /// server is cancellable.
  std::uint64_t seq = 0;
};

class ServerSim {
 public:
  ServerSim(common::ServerKind kind, DeviceProfile device, NetworkProfile network)
      : kind_(kind), device_(std::move(device)), network_(std::move(network)) {}

  common::ServerKind kind() const { return kind_; }
  const DeviceProfile& device() const { return device_; }
  const NetworkProfile& network() const { return network_; }

  /// Admits one sub-request of `bytes` arriving at virtual time `arrival`;
  /// returns its completion time and advances the queue.  `bytes == 0`
  /// completes immediately at `arrival`.  `job` selects the per-job
  /// accounting row the charge lands in (default: the single-tenant job 0).
  common::Seconds submit(common::OpType op, common::ByteCount bytes, common::Seconds arrival,
                         common::JobId job = common::kDefaultJob);

  /// Like submit(), but returns the full receipt so the caller can later
  /// try_cancel() it (hedged duplicates).
  Charge charge(common::OpType op, common::ByteCount bytes, common::Seconds arrival,
                common::JobId job = common::kDefaultJob);

  /// Undoes `c` — rewinds the queue and the stats — provided no later charge
  /// was admitted (LIFO cancellation, the only case a hedger needs).
  /// Returns false (and changes nothing) otherwise or for empty charges.
  bool try_cancel(const Charge& c);

  /// Marks `bytes` of already-admitted `job` work as wasted: the owning
  /// request was abandoned but the charge could not be cancelled, so the
  /// server will serve it for nothing.  Reconciles aggregate and job rows
  /// like every other counter (goodput-vs-throughput accounting).
  void note_wasted(common::JobId job, common::ByteCount bytes);

  /// Completion time a sub-request submitted now would get, without
  /// admitting it (the scheduler's look-ahead; exact under virtual time).
  common::Seconds predict(common::OpType op, common::ByteCount bytes,
                          common::Seconds arrival) const;

  /// Pure service time (no queuing) the server would charge for `bytes`.
  common::Seconds service_time(common::OpType op, common::ByteCount bytes) const;

  /// Time at which the queue drains completely.
  common::Seconds next_free() const { return next_free_; }

  /// Seconds of queued work an arrival at `now` would wait behind.
  common::Seconds backlog(common::Seconds now) const {
    return next_free_ > now ? next_free_ - now : 0.0;
  }

  const ServerStats& stats() const { return stats_; }
  void reset_stats() {
    stats_ = ServerStats{};
    job_stats_.clear();
  }

  /// Per-job accounting rows, indexed by JobId; rows exist for every job id
  /// up to the highest this server has ever been charged for.  Jobs never
  /// seen read as empty rows via job_stats(job).
  const std::vector<JobServerStats>& job_stats() const { return job_stats_; }
  const JobServerStats& job_stats(common::JobId job) const {
    static const JobServerStats kEmpty;
    return job < job_stats_.size() ? job_stats_[job] : kEmpty;
  }

  /// Rewinds the queue to empty at time 0 (stats untouched).
  void reset_clock() { next_free_ = 0.0; }

  /// Attaches a fault model (borrowed; may be nullptr).  `index` is the
  /// identity this server reports to the hook.  When set, charge() and
  /// predict() both push starts past offline windows and inflate service by
  /// the hook's brownout factor, so scheduler look-ahead stays exact under
  /// injected faults.
  void set_fault_hook(const FaultHook* hook, std::size_t index) {
    fault_hook_ = hook;
    fault_index_ = index;
  }
  const FaultHook* fault_hook() const { return fault_hook_; }

 private:
  common::ServerKind kind_;
  DeviceProfile device_;
  NetworkProfile network_;
  common::Seconds next_free_ = 0.0;
  std::uint64_t seq_ = 0;
  ServerStats stats_;
  /// Per-job accounting rows (index == JobId); grown on first touch of a new
  /// job, so the steady-state request path never allocates here.
  std::vector<JobServerStats> job_stats_;
  const FaultHook* fault_hook_ = nullptr;
  std::size_t fault_index_ = 0;
};

/// Shared formatting for the per-server stats tables printed by ClusterSim
/// and HybridPfs: kind, sub-requests, bytes, busy time, queue wait (total
/// and per sub-request — the straggler pressure signal).
std::string stats_table_header();
std::string stats_table_row(std::size_t index, const ServerSim& server);

}  // namespace mha::sim
