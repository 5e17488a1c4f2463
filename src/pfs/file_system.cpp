#include "pfs/file_system.hpp"

#include <algorithm>

#include "repair/membership.hpp"

namespace mha::pfs {

HybridPfs::HybridPfs(const sim::ClusterConfig& config, PfsOptions options)
    : config_(config), mds_(std::move(options.rst_path)), num_hservers_(config.num_hservers) {
  servers_.reserve(config.num_hservers + config.num_sservers);
  for (std::size_t i = 0; i < config.num_hservers; ++i) {
    servers_.push_back(std::make_unique<DataServer>(common::ServerKind::kHdd, config.hdd,
                                                    config.network, options.store_data));
  }
  for (std::size_t i = 0; i < config.num_sservers; ++i) {
    servers_.push_back(std::make_unique<DataServer>(common::ServerKind::kSsd, config.ssd,
                                                    config.network, options.store_data));
  }
  std::vector<sim::ServerSim*> sims;
  sims.reserve(servers_.size());
  for (auto& server : servers_) sims.push_back(&server->sim());
  row_ = sched::ServerRow(std::move(sims), num_hservers_);
  per_server_.resize(servers_.size(), 0);
}

void HybridPfs::set_fault_context(fault::FaultContext* fault) {
  fault_ = fault;
  const sim::FaultHook* hook = fault != nullptr ? &fault->injector() : nullptr;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    servers_[i]->sim().set_fault_hook(hook, i);
  }
}

void HybridPfs::charge_sub(common::OpType op, std::size_t server, common::ByteCount bytes,
                           common::Seconds t, common::JobId job, IoResult& result) {
  if (scheduler_ != nullptr) {
    const sched::DispatchResult out =
        scheduler_->dispatch(row_, {sim::SubRequest{server, op, bytes, job}}, t);
    result.completion = std::max(result.completion, out.completion);
    result.sub_requests += out.sub_requests;
    ++result.servers_touched;
    if (out.last_server != sched::DispatchResult::kNoServer) {
      receipts_.push_back(SubCharge{out.last_server, out.last_charge});
    }
    return;
  }
  const sim::Charge c = row_.server(server).charge(op, bytes, t, job);
  receipts_.push_back(SubCharge{server, c});
  result.completion = std::max(result.completion, c.completion);
  ++result.sub_requests;
  ++result.servers_touched;
}

void HybridPfs::rewind_receipts() {
  for (std::size_t i = receipts_.size(); i-- > 0;) {
    const SubCharge& r = receipts_[i];
    if (r.charge.bytes == 0) continue;
    if (row_.server(r.server).try_cancel(r.charge)) {
      if (guard_ != nullptr) guard_->note_sibling_cancelled(r.charge.bytes);
    } else {
      // A later admission baked this charge's completion into the queue:
      // the server will serve it anyway.  Throughput without goodput.
      row_.server(r.server).note_wasted(r.charge.job, r.charge.bytes);
      if (guard_ != nullptr) guard_->note_sibling_wasted(r.charge.bytes);
    }
  }
  receipts_.clear();
}

bool HybridPfs::failover_active() const {
  return membership_ != nullptr && membership_->dead_count() > 0;
}

void HybridPfs::set_replica(common::FileId primary, common::FileId replica) {
  if (replica_of_.size() <= primary) {
    replica_of_.resize(primary + 1, common::kInvalidFileId);
  }
  replica_of_[primary] = replica;
}

void HybridPfs::clear_replica(common::FileId primary) {
  if (primary < replica_of_.size()) replica_of_[primary] = common::kInvalidFileId;
}

void HybridPfs::wipe_server(std::size_t server) {
  for (common::FileId f = 0; f < mds_.file_count(); ++f) {
    servers_[server]->remove_file(f);
  }
}

std::size_t HybridPfs::pick_fallback_sserver(common::Seconds t) const {
  std::size_t best = servers_.size();
  common::Seconds best_backlog = 0.0;
  for (std::size_t s = num_hservers_; s < servers_.size(); ++s) {
    if (membership_ != nullptr && membership_->dead(s)) continue;
    if (fault_ != nullptr && fault_->injector().offline(s, t)) continue;
    if (guard_ != nullptr && !guard_->breaker_healthy(s)) continue;
    const common::Seconds b = row_.server(s).backlog(t);
    if (best == servers_.size() || b < best_backlog) {
      best = s;
      best_backlog = b;
    }
  }
  return best;
}

common::Status HybridPfs::charge(common::OpType op, const BatchRequest& r, std::size_t index,
                                 IoResult& result) {
  // Charge each server once for the request's accumulated bytes: the
  // per-server physical image of one request is contiguous under dense
  // round-robin packing, so a real client ships it as a single server
  // message (the per-server term of Eq. 2).
  std::fill(per_server_.begin(), per_server_.end(), 0);
  for (std::uint32_t k = batch_sub_begin_[index]; k < batch_sub_begin_[index + 1]; ++k) {
    per_server_[batch_subs_[k].server] += batch_subs_[k].length;
  }
  result.completion = r.arrival;
  receipts_.clear();

  if (fault_ != nullptr) {
    // Recovered servers first pay the traffic they missed: replay every
    // redo entry whose target is back online.  The replay is catch-up
    // background work — it loads the server queue (and so delays this
    // request through contention) but does not gate its completion.
    fault::FaultMetrics& metrics = fault_->metrics();
    fault_->redo().drain_replayable(
        fault_->injector(), r.arrival, [&](const fault::RedoEntry& entry) {
          row_.server(entry.server).submit(common::OpType::kWrite, entry.bytes, r.arrival);
          ++metrics.redo_replayed;
          metrics.redo_bytes += entry.bytes;
        });
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      fault_->note_server_state(i, fault_->injector().offline(i, r.arrival));
    }
  }

  // Admission gate: observe (post-redo) backlogs and shed before any server
  // is charged (the fast-fail contract of kOverloaded).
  if (guard_ != nullptr) {
    common::Seconds max_backlog = 0.0;
    for (std::size_t i = 0; i < per_server_.size(); ++i) {
      if (per_server_[i] == 0) continue;
      const common::Seconds b = row_.server(i).backlog(r.arrival);
      guard_->observe_server(i, r.arrival, b);
      max_backlog = std::max(max_backlog, b);
    }
    if (!guard_->admit(r.job, max_backlog)) {
      return common::Status::overloaded(
          "admission gate shed " + std::string(guard::tier_name(guard_->tier_of(r.job))) +
          "-tier request (backlog " + std::to_string(max_backlog) + "s)");
    }
  }

  const bool enforce_deadline =
      guard_ != nullptr && r.deadline < std::numeric_limits<double>::infinity();
  if (fault_ == nullptr && scheduler_ != nullptr && !enforce_deadline) {
    // One policy dispatch carrying every sub-request of the request.
    subs_.clear();
    for (std::size_t i = 0; i < per_server_.size(); ++i) {
      if (per_server_[i] == 0) continue;
      subs_.push_back(sim::SubRequest{i, op, per_server_[i], r.job});
    }
    const sched::DispatchResult out = scheduler_->dispatch(
        row_, std::span<const sim::SubRequest>(subs_.data(), subs_.size()), r.arrival);
    result.completion = std::max(result.completion, out.completion);
    result.sub_requests += out.sub_requests;
    result.servers_touched += subs_.size();
    return common::Status::ok();
  }

  // Otherwise sub-requests go out one at a time, so each leaves a
  // cancellation receipt and the first one that cannot make the deadline
  // aborts the rest.  The retry/offline-wait budget of the degraded path is
  // additionally capped by the deadline: waiting past the instant the
  // caller abandons the request is work nobody will collect.
  const common::Seconds budget_end =
      fault_ == nullptr
          ? std::numeric_limits<double>::infinity()
          : std::min(r.arrival + fault_->retry().timeout_budget,
                     enforce_deadline ? r.deadline : std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < per_server_.size(); ++i) {
    if (per_server_[i] == 0) continue;
    std::size_t server = i;
    const common::ByteCount bytes = per_server_[i];
    common::Seconds t = r.arrival;
    std::size_t attempt = 1;
    bool parked = false;
    // Degraded-mode resolution of where and when this sub-request runs.
    while (fault_ != nullptr) {
      fault::FaultInjector& injector = fault_->injector();
      fault::FaultMetrics& metrics = fault_->metrics();
      const fault::RetryPolicy& policy = fault_->retry();
      if (injector.offline(server, t)) {
        ++metrics.offline_hits;
        if (guard_ != nullptr) guard_->record_server(server, t, false);
        if (op == common::OpType::kWrite) {
          // The payload is already durable in the client-visible content
          // plane (the store stage ran first), so park the server charge in
          // the redo log and acknowledge — read-your-writes holds.
          fault_->redo().append(fault::RedoEntry{server, r.file, bytes, t});
          ++metrics.redo_logged;
          result.completion = std::max(result.completion, t);
          parked = true;
          break;
        }
        if (is_hserver(server)) {
          // Degraded read: HServer data has an SServer replica under the
          // paper's migration story — re-charge the least-loaded online
          // SServer.  Bytes were already loaded from the content plane, so
          // the answer stays byte-identical.
          const std::size_t best = pick_fallback_sserver(t);
          if (best != servers_.size()) {
            ++metrics.degraded_reads;
            server = best;
            continue;
          }
        }
        // No replica to fall back on: wait out the outage if the budget
        // allows, otherwise surface the failure (releasing any siblings
        // already charged for this request).
        const common::Seconds up = injector.recovery_time(server, t);
        if (up > budget_end) {
          ++metrics.budget_exhausted;
          rewind_receipts();
          return common::Status::unavailable(
              "server " + std::to_string(server) + " offline past the " +
              std::to_string(policy.timeout_budget) + "s request budget");
        }
        t = up;
        continue;
      }
      // Circuit breaker: an open breaker turns HServer reads away before
      // they queue behind a sick server; the replica fallback absorbs them.
      // Writes pass through — their durability story is the redo log, and
      // overload protection for them is the admission gate above.
      if (guard_ != nullptr && op == common::OpType::kRead && is_hserver(server) &&
          !guard_->breaker_allow(server, t)) {
        guard_->note_breaker_rejection();
        const std::size_t best = pick_fallback_sserver(t);
        if (best != servers_.size()) {
          guard_->note_reroute();
          server = best;
          continue;
        }
        // Every fallback is sick too; charging the primary anyway beats
        // failing a request the admission gate already accepted.
      }
      if (injector.draw_transient(server, t)) {
        if (guard_ != nullptr) guard_->record_server(server, t, false);
        if (attempt >= policy.max_attempts) {
          ++metrics.budget_exhausted;
          rewind_receipts();
          return common::Status::io_error(
              "sub-request to server " + std::to_string(server) + " failed " +
              std::to_string(attempt) + " attempts");
        }
        // The global retry-token budget outranks the per-request attempt
        // budget: when the bucket is dry the fleet is already retrying at
        // its ceiling, and this request sheds instead of piling on.
        if (guard_ != nullptr && !guard_->take_retry_token()) {
          ++metrics.budget_exhausted;
          rewind_receipts();
          return common::Status::overloaded(
              "retry tokens exhausted (server " + std::to_string(server) + ")");
        }
        const common::Seconds delay = fault::backoff_delay(policy, attempt, fault_->rng());
        if (t + delay > budget_end) {
          ++metrics.budget_exhausted;
          rewind_receipts();
          return common::Status::unavailable(
              "retries on server " + std::to_string(server) +
              " exhausted the request budget");
        }
        ++attempt;
        ++metrics.retries;
        metrics.backoff_seconds += delay;
        t += delay;
        continue;
      }
      break;
    }
    if (parked) continue;
    charge_sub(op, server, bytes, t, r.job, result);
    // End-to-end deadline: if this sub-request cannot complete before the
    // caller abandons the request, stop here and cancel the siblings already
    // charged — work the servers would otherwise perform for nothing.  Under
    // a fault context the blown deadline is also this server's failure as
    // far as its breaker is concerned: it was too slow.
    if (enforce_deadline && result.completion > r.deadline) {
      guard_->note_deadline_miss();
      if (fault_ != nullptr) guard_->record_server(server, t, false);
      rewind_receipts();
      return common::Status::unavailable("deadline exceeded dispatching to server " +
                                         std::to_string(server));
    }
    if (fault_ != nullptr && guard_ != nullptr) guard_->record_server(server, t, true);
  }
  return common::Status::ok();
}

HybridPfs::HybridPfs(const sim::ClusterConfig& config, std::string rst_path)
    : HybridPfs(config, PfsOptions{std::move(rst_path), true}) {}

common::Result<common::FileId> HybridPfs::create_file(const std::string& name,
                                                      StripeLayout layout) {
  if (layout.num_servers() != servers_.size()) {
    return common::Status::invalid_argument(
        "layout covers " + std::to_string(layout.num_servers()) + " servers, cluster has " +
        std::to_string(servers_.size()));
  }
  return mds_.create_file(name, std::move(layout));
}

common::Result<common::FileId> HybridPfs::create_file(const std::string& name) {
  return create_file(name, StripeLayout::uniform(servers_.size(), kDefaultStripe));
}

common::Result<common::FileId> HybridPfs::open(const std::string& name) const {
  return mds_.lookup(name);
}

common::Result<IoResult> HybridPfs::write(common::FileId file, common::Offset offset,
                                          const std::uint8_t* data, common::ByteCount size,
                                          common::Seconds arrival, common::JobId job,
                                          common::Seconds deadline) {
  const BatchRequest req{file, offset, size, nullptr, data, arrival, job, deadline, 0};
  BatchResultVec results;
  run_batch(common::OpType::kWrite, {&req, 1}, results);
  if (!results[0].status.is_ok()) return results[0].status;
  return results[0].io;
}

common::Result<IoResult> HybridPfs::read(common::FileId file, common::Offset offset,
                                         std::uint8_t* out, common::ByteCount size,
                                         common::Seconds arrival, common::JobId job,
                                         common::Seconds deadline) {
  const BatchRequest req{file, offset, size, out, nullptr, arrival, job, deadline, 0};
  BatchResultVec results;
  run_batch(common::OpType::kRead, {&req, 1}, results);
  if (!results[0].status.is_ok()) return results[0].status;
  return results[0].io;
}

void HybridPfs::write_batch(std::span<const BatchRequest> reqs, BatchResultVec& results) {
  run_batch(common::OpType::kWrite, reqs, results);
}

void HybridPfs::read_batch(std::span<const BatchRequest> reqs, BatchResultVec& results) {
  run_batch(common::OpType::kRead, reqs, results);
}

void HybridPfs::run_batch(common::OpType op, std::span<const BatchRequest> reqs,
                          BatchResultVec& results) {
  results.clear();
  results.resize(reqs.size());
  const std::span<BatchOpResult> out(results.data(), results.size());
  if (guard_ == nullptr && fault_ == nullptr && run_stages(op, reqs, out)) return;
  bool have_failed_group = false;
  std::uint32_t failed_group = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    out[i] = BatchOpResult{};
    if (have_failed_group && reqs[i].group == failed_group) {
      out[i].skipped = true;
      continue;
    }
    run_stages(op, reqs.subspan(i, 1), out.subspan(i, 1));
    if (!out[i].status.is_ok()) {
      have_failed_group = true;
      failed_group = reqs[i].group;
    }
  }
}

bool HybridPfs::run_stages(common::OpType op, std::span<const BatchRequest> reqs,
                           std::span<BatchOpResult> out) {
  if (!translate(op, reqs, out)) return true;
  if (op == common::OpType::kWrite) {
    store(reqs, out);
  } else if (!load(reqs, out)) {
    return false;
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (out[i].skipped || !out[i].status.is_ok()) continue;
    IoResult io;
    common::Status charged = charge(op, reqs[i], i, io);
    if (!charged.is_ok()) {
      out[i].status = std::move(charged);
      continue;
    }
    out[i].io = io;
    // Complete: a successful write extends its file (failed and skipped
    // requests never do).
    if (op == common::OpType::kWrite) mds_.extend(reqs[i].file, reqs[i].offset + reqs[i].size);
  }
  return true;
}

bool HybridPfs::translate(common::OpType op, std::span<const BatchRequest> reqs,
                          std::span<BatchOpResult> out) {
  batch_subs_.clear();
  batch_sub_begin_.clear();
  const bool failover = failover_active();
  bool have_failed_group = false;
  std::uint32_t failed_group = 0;
  bool any = false;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const BatchRequest& r = reqs[i];
    const std::uint32_t req_begin = static_cast<std::uint32_t>(batch_subs_.size());
    batch_sub_begin_.push_back(req_begin);
    if (have_failed_group && r.group == failed_group) {
      out[i].skipped = true;
      continue;
    }
    if (r.file >= mds_.file_count()) {
      out[i].status = common::Status::out_of_range("bad file id");
      have_failed_group = true;
      failed_group = r.group;
      continue;
    }
    mds_.info(r.file).layout.map_extent(r.offset, r.size, extents_);
    const common::FileId replica = replica_of(r.file);
    common::Status failed;
    for (const SubExtent& sub : extents_) {
      const bool dead = failover && membership_->dead(sub.server);
      if (dead && replica == common::kInvalidFileId) {
        ++failover_stats_.unavailable;
        failed = common::Status::unavailable(
            "server " + std::to_string(sub.server) + " is dead and file " +
            std::to_string(r.file) + " has no replica");
        break;
      }
      if (!dead) {
        batch_subs_.push_back(BatchSub{static_cast<std::uint32_t>(i),
                                       static_cast<std::uint32_t>(sub.server), r.file,
                                       sub.physical_offset, sub.length,
                                       sub.logical_offset});
      } else if (op == common::OpType::kWrite) {
        ++failover_stats_.failover_writes;
      }
      // Replica subs: reads retarget only when the primary is dead; writes
      // always mirror so the copies stay coherent for a future kill.  The
      // replica shares the file's logical byte space, so the sub's bytes
      // live at the same logical range of the replica, mapped through the
      // replica's own layout and charged under the requester's job.
      if (replica != common::kInvalidFileId &&
          (dead || op == common::OpType::kWrite)) {
        mds_.info(replica).layout.map_extent(sub.logical_offset, sub.length,
                                             failover_extents_);
        for (const SubExtent& rsub : failover_extents_) {
          if (membership_ != nullptr && membership_->dead(rsub.server)) {
            ++failover_stats_.unavailable;
            failed = common::Status::unavailable(
                "file " + std::to_string(r.file) +
                (dead ? " lost both copies (replica server "
                      : " cannot mirror onto its replica (replica server ") +
                std::to_string(rsub.server) + (dead ? " is dead too)" : " is dead)"));
            break;
          }
          batch_subs_.push_back(BatchSub{static_cast<std::uint32_t>(i),
                                         static_cast<std::uint32_t>(rsub.server), replica,
                                         rsub.physical_offset, rsub.length,
                                         rsub.logical_offset});
          if (op == common::OpType::kRead) {
            ++failover_stats_.failover_reads;
            failover_stats_.failover_bytes += rsub.length;
          } else {
            ++failover_stats_.mirrored_writes;
            failover_stats_.mirror_bytes += rsub.length;
          }
        }
        if (!failed.is_ok()) break;
      }
    }
    if (!failed.is_ok()) {
      // The failed request contributes nothing: no content op, no charge.
      batch_subs_.resize(req_begin);
      out[i].status = failed;
      have_failed_group = true;
      failed_group = r.group;
      continue;
    }
    any = true;
  }
  batch_sub_begin_.push_back(static_cast<std::uint32_t>(batch_subs_.size()));
  return any;
}

void HybridPfs::store(std::span<const BatchRequest> reqs,
                      std::span<const BatchOpResult> out) {
  if (fault_ != nullptr) {
    // Silent-fault injection point: each stored primary sub-extent may be
    // bit-rotted, torn or misdirected on its way to the content plane.  The
    // draw consumes randomness only under a covering silent window, and the
    // sim charges normal time either way — silent faults are invisible to
    // schedulers and to every timing golden.  Mirror subs store plainly.
    for (const BatchSub& s : batch_subs_) {
      const BatchRequest& r = reqs[s.req];
      sim::WriteFault wf;
      if (s.file == r.file) {
        wf = fault_->injector().draw_write_fault(s.server, r.arrival, s.physical_offset,
                                                 s.length);
      }
      servers_[s.server]->store_faulted(s.file, s.physical_offset,
                                        r.write_data + (s.logical_offset - r.offset),
                                        s.length, wf);
    }
  } else if (!servers_.empty() && servers_[0]->stores_data()) {
    // Group the subs by (server, file), keeping request order within each
    // group so overlapping writes land exactly as one-by-one writes would,
    // and push each group through one store_batch call (every touched
    // checksum chunk paid once instead of once per sub-stripe piece — the
    // dominant cost of small writes).
    batch_sorted_ = batch_subs_;
    std::sort(batch_sorted_.begin(), batch_sorted_.end(),
              [](const BatchSub& a, const BatchSub& b) {
                if (a.server != b.server) return a.server < b.server;
                if (a.file != b.file) return a.file < b.file;
                if (a.req != b.req) return a.req < b.req;
                return a.logical_offset < b.logical_offset;
              });
    std::size_t g = 0;
    while (g < batch_sorted_.size()) {
      const std::uint32_t server = batch_sorted_[g].server;
      const common::FileId file = batch_sorted_[g].file;
      batch_slices_.clear();
      std::size_t e = g;
      for (; e < batch_sorted_.size() && batch_sorted_[e].server == server &&
             batch_sorted_[e].file == file;
           ++e) {
        const BatchSub& s = batch_sorted_[e];
        const BatchRequest& r = reqs[s.req];
        batch_slices_.push_back(ExtentStore::IoSlice{
            s.physical_offset, r.write_data + (s.logical_offset - r.offset), s.length});
      }
      servers_[server]->store_batch(
          file, std::span<const ExtentStore::IoSlice>(batch_slices_.data(),
                                                      batch_slices_.size()));
      g = e;
    }
  }
  // A mirrored replica grows with its stored bytes, even when the charge
  // stage later fails the request.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const common::FileId replica = replica_of(reqs[i].file);
    if (out[i].skipped || !out[i].status.is_ok() || replica == common::kInvalidFileId) {
      continue;
    }
    mds_.extend(replica, reqs[i].offset + reqs[i].size);
  }
}

bool HybridPfs::load(std::span<const BatchRequest> reqs, std::span<BatchOpResult> out) {
  // Sort the subs by physical position, coalesce overlap-or-adjacent runs
  // per (server, file), and verify each run once.  A run never bridges a
  // physical gap, so its chunk set is exactly the union of the per-sub
  // chunk sets — shared chunks just get checked once instead of once per
  // sub.
  batch_sorted_ = batch_subs_;
  std::sort(batch_sorted_.begin(), batch_sorted_.end(),
            [](const BatchSub& a, const BatchSub& b) {
              if (a.server != b.server) return a.server < b.server;
              if (a.file != b.file) return a.file < b.file;
              if (a.physical_offset != b.physical_offset) {
                return a.physical_offset < b.physical_offset;
              }
              return a.req < b.req;
            });
  bool clean = true;
  for (std::size_t g = 0; g < batch_sorted_.size() && clean;) {
    const BatchSub& head = batch_sorted_[g];
    common::Offset run_end = head.physical_offset + head.length;
    std::size_t e = g + 1;
    for (; e < batch_sorted_.size(); ++e) {
      const BatchSub& s = batch_sorted_[e];
      if (s.server != head.server || s.file != head.file ||
          s.physical_offset > run_end) {
        break;
      }
      run_end = std::max(run_end, s.physical_offset + s.length);
    }
    clean = servers_[head.server]
                ->verify_range(head.file, head.physical_offset,
                               run_end - head.physical_offset)
                .is_ok();
    g = e;
  }
  if (!clean && reqs.size() > 1) return false;
  for (const BatchSub& s : batch_subs_) {
    const BatchRequest& r = reqs[s.req];
    std::uint8_t* dest = r.read_out + (s.logical_offset - r.offset);
    if (clean) {
      // Verification already passed and every destination slice is
      // distinct, so the raw loads' order is irrelevant.
      servers_[s.server]->load(s.file, s.physical_offset, dest, s.length);
      continue;
    }
    // Corruption under a single request: load sub by sub in request order,
    // so the Status names the first failing chunk (server, CRCs) and the
    // output buffer is filled exactly up to it.
    common::Status verified =
        servers_[s.server]->load_verified(s.file, s.physical_offset, dest, s.length);
    if (!verified.is_ok()) {
      if (fault_ != nullptr) ++fault_->metrics().corruption_detected;
      out[s.req].status =
          common::Status::corruption("server " + std::to_string(s.server) + " file " +
                                     std::to_string(s.file) + ": " + verified.message());
      break;
    }
  }
  return true;
}

common::Result<IoResult> HybridPfs::write(common::FileId file, common::Offset offset,
                                          const std::vector<std::uint8_t>& data,
                                          common::Seconds arrival) {
  return write(file, offset, data.data(), data.size(), arrival);
}

common::Result<std::vector<std::uint8_t>> HybridPfs::read_bytes(common::FileId file,
                                                                common::Offset offset,
                                                                common::ByteCount size,
                                                                common::Seconds arrival) {
  std::vector<std::uint8_t> out(size);
  auto r = read(file, offset, out.data(), size, arrival);
  if (!r.is_ok()) return r.status();
  return out;
}

common::Status HybridPfs::remove(const std::string& name) {
  auto id = mds_.lookup(name);
  if (!id.is_ok()) return id.status();
  for (auto& server : servers_) server->remove_file(*id);
  return mds_.remove(name);
}

common::ByteCount HybridPfs::stored_bytes(common::FileId file) const {
  common::ByteCount total = 0;
  for (const auto& server : servers_) total += server->stored_bytes(file);
  return total;
}

void HybridPfs::reset_stats() {
  for (auto& server : servers_) server->sim().reset_stats();
}

void HybridPfs::reset_clocks() {
  for (auto& server : servers_) server->sim().reset_clock();
}

std::string HybridPfs::stats_table() const {
  std::string out = sim::stats_table_header();
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    out += sim::stats_table_row(i, servers_[i]->sim());
  }
  return out;
}

common::Status copy_range(HybridPfs& pfs, common::FileId from, common::Offset from_offset,
                          common::FileId to, common::Offset to_offset,
                          common::ByteCount length, common::ByteCount chunk,
                          std::vector<std::uint8_t>& buffer, common::Seconds& clock,
                          common::JobId job) {
  for (common::ByteCount moved = 0; moved < length;) {
    const common::ByteCount piece = std::min(chunk, length - moved);
    buffer.resize(piece);
    auto read = pfs.read(from, from_offset + moved, buffer.data(), piece, clock, job);
    if (!read.is_ok()) return read.status();
    auto write =
        pfs.write(to, to_offset + moved, buffer.data(), piece, read->completion, job);
    if (!write.is_ok()) return write.status();
    clock = write->completion;
    moved += piece;
  }
  return common::Status::ok();
}

}  // namespace mha::pfs
