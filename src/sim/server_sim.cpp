#include "sim/server_sim.hpp"

#include <algorithm>
#include <cstdio>

#include "common/units.hpp"

namespace mha::sim {

common::Seconds ServerSim::service_time(common::OpType op, common::ByteCount bytes) const {
  if (bytes == 0) return 0.0;
  return device_.service_time(op, bytes) + network_.transfer_time(bytes);
}

common::Seconds ServerSim::predict(common::OpType op, common::ByteCount bytes,
                                   common::Seconds arrival) const {
  if (bytes == 0) return arrival;
  common::Seconds start = std::max(arrival, next_free_);
  common::Seconds service = service_time(op, bytes);
  if (next_free_ > arrival) {
    service -= device_.startup(op) * (1.0 - device_.queued_startup_factor);
  }
  if (fault_hook_ != nullptr) {
    start = std::max(start, fault_hook_->earliest_start(fault_index_, start));
    service *= fault_hook_->service_factor(fault_index_, start);
  }
  return start + service;
}

Charge ServerSim::charge(common::OpType op, common::ByteCount bytes,
                         common::Seconds arrival, common::JobId job) {
  Charge c;
  c.op = op;
  c.bytes = bytes;
  c.job = job;
  if (bytes == 0) {
    c.start = c.completion = arrival;
    c.prev_next_free = next_free_;
    c.seq = seq_;
    return c;
  }
  c.start = std::max(arrival, next_free_);
  // A sub-request that found the device busy pays only the discounted
  // (short-seek) share of the startup cost.
  const bool queued = next_free_ > arrival;
  c.service = service_time(op, bytes);
  if (queued) {
    c.service -= device_.startup(op) * (1.0 - device_.queued_startup_factor);
  }
  if (fault_hook_ != nullptr) {
    // An offline server cannot start until its outage ends; a browned-out
    // one serves slower.  Same math as predict(), so look-ahead is exact.
    c.start = std::max(c.start, fault_hook_->earliest_start(fault_index_, c.start));
    c.service *= fault_hook_->service_factor(fault_index_, c.start);
  }
  c.completion = c.start + c.service;
  c.wait = c.start - arrival;
  c.prev_next_free = next_free_;
  c.seq = ++seq_;
  next_free_ = c.completion;

  ++stats_.sub_requests;
  if (op == common::OpType::kRead) {
    stats_.bytes_read += bytes;
  } else {
    stats_.bytes_written += bytes;
  }
  stats_.busy_time += c.service;
  stats_.queue_wait += c.wait;

  // Per-job accounting row (grown once per new job, never in steady state).
  if (job >= job_stats_.size()) job_stats_.resize(job + 1);
  JobServerStats& row = job_stats_[job];
  ++row.sub_requests;
  if (op == common::OpType::kRead) {
    row.bytes_read += bytes;
  } else {
    row.bytes_written += bytes;
  }
  row.busy_time += c.service;
  row.queue_wait += c.wait;
  return c;
}

common::Seconds ServerSim::submit(common::OpType op, common::ByteCount bytes,
                                  common::Seconds arrival, common::JobId job) {
  return charge(op, bytes, arrival, job).completion;
}

bool ServerSim::try_cancel(const Charge& c) {
  if (c.bytes == 0) return false;
  // Only the most recent admission is cancellable: a later charge started
  // from (and baked in) this one's completion time.
  if (c.seq != seq_ || next_free_ != c.completion) return false;
  next_free_ = c.prev_next_free;
  --stats_.sub_requests;
  if (c.op == common::OpType::kRead) {
    stats_.bytes_read -= c.bytes;
  } else {
    stats_.bytes_written -= c.bytes;
  }
  stats_.busy_time -= c.service;
  stats_.queue_wait -= c.wait;
  // The job row must release the cancelled charge too, or a lost hedge would
  // leave phantom per-tenant usage behind (the accounting twin of the queue
  // rewind above).
  if (c.job >= job_stats_.size()) return true;  // rows cleared since (reset_stats)
  JobServerStats& row = job_stats_[c.job];
  --row.sub_requests;
  if (c.op == common::OpType::kRead) {
    row.bytes_read -= c.bytes;
  } else {
    row.bytes_written -= c.bytes;
  }
  row.busy_time -= c.service;
  row.queue_wait -= c.wait;
  return true;
}

void ServerSim::note_wasted(common::JobId job, common::ByteCount bytes) {
  stats_.bytes_wasted += bytes;
  if (job >= job_stats_.size()) job_stats_.resize(job + 1);
  job_stats_[job].bytes_wasted += bytes;
}

std::string stats_table_header() {
  return "server  kind     subs     bytes        busy(s)   wait(s)   wait/sub(ms) wasted\n";
}

std::string stats_table_row(std::size_t index, const ServerSim& server) {
  const ServerStats& st = server.stats();
  const double wait_per_sub =
      st.sub_requests > 0 ? st.queue_wait / static_cast<double>(st.sub_requests) : 0.0;
  char line[192];
  std::snprintf(line, sizeof(line), "S%-6zu %-8s %-8llu %-12s %-9.4f %-9.4f %-12.3f %-10s\n",
                index, common::to_string(server.kind()),
                static_cast<unsigned long long>(st.sub_requests),
                common::format_bytes(st.bytes_total()).c_str(), st.busy_time, st.queue_wait,
                wait_per_sub * 1e3, common::format_bytes(st.bytes_wasted).c_str());
  return line;
}

}  // namespace mha::sim
