// Client-side write redo log for degraded-mode writes.
//
// A write sub-request bound for an offline server is not an error and must
// not block for the whole outage: the client parks it here (payload bytes
// are already durable in the client-visible content plane, so subsequent
// reads observe the write — read-your-writes) and acknowledges.  When the
// target server comes back, the parked entries are replayed against it so
// the server pays the deferred traffic on its own timeline.  Entries are
// replayed in log order per server.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "fault/injector.hpp"

namespace mha::fault {

struct RedoEntry {
  std::size_t server = 0;
  common::FileId file = common::kInvalidFileId;
  common::ByteCount bytes = 0;
  common::Seconds logged_at = 0.0;
};

class RedoLog {
 public:
  void append(RedoEntry entry) { entries_.push_back(entry); }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  const std::vector<RedoEntry>& pending() const { return entries_; }

  /// Removes every entry whose target server is online at `now` according
  /// to `injector` and hands each to `replay`, in log order; the parked
  /// rest keep their order.  Compacts in place, so a charged request never
  /// allocates here.
  template <typename Replay>
  void drain_replayable(const FaultInjector& injector, common::Seconds now, Replay&& replay) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (injector.offline(entries_[i].server, now)) {
        entries_[kept++] = entries_[i];
      } else {
        replay(entries_[i]);
      }
    }
    entries_.resize(kept);
  }

 private:
  std::vector<RedoEntry> entries_;
};

}  // namespace mha::fault
