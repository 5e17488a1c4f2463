#include "repair/rebuilder.hpp"

#include <algorithm>
#include <cctype>

#include "common/log.hpp"
#include "common/units.hpp"

namespace mha::repair {

namespace {

common::Status injected_crash(std::string_view point) {
  return common::Status::io_error("injected crash at " + std::string(point));
}

bool all_digits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// Strips one rebuild suffix (".rb<epoch>", ".rep", ".rep<epoch>") off a
/// file name; returns the name unchanged when it carries none.
std::string_view rebuild_base(std::string_view name) {
  const std::size_t pos = name.rfind('.');
  if (pos == std::string_view::npos) return name;
  const std::string_view suffix = name.substr(pos + 1);
  if (suffix.size() > 2 && suffix.substr(0, 2) == "rb" && all_digits(suffix.substr(2))) {
    return name.substr(0, pos);
  }
  if (suffix.size() >= 3 && suffix.substr(0, 3) == "rep" &&
      (suffix.size() == 3 || all_digits(suffix.substr(3)))) {
    return name.substr(0, pos);
  }
  return name;
}

bool is_replica_name(std::string_view name) {
  const std::size_t pos = name.rfind('.');
  if (pos == std::string_view::npos) return false;
  const std::string_view suffix = name.substr(pos + 1);
  return suffix.size() >= 3 && suffix.substr(0, 3) == "rep" &&
         (suffix.size() == 3 || all_digits(suffix.substr(3)));
}

}  // namespace

void kill_server(Membership& membership, pfs::HybridPfs& pfs, std::size_t server,
                 common::Seconds now, fault::FaultInjector* injector) {
  membership.kill(server, now, injector);
  pfs.wipe_server(server);
}

std::string RebuildReport::table() const {
  std::string out = "rebuild: tasks=" + std::to_string(tasks) +
                    " primaries=" + std::to_string(primaries_rebuilt) +
                    " replicas=" + std::to_string(replicas_rebuilt) +
                    " lost=" + std::to_string(lost_regions);
  out += " | copied=" + common::format_bytes(bytes_copied) +
         " recopied=" + common::format_bytes(bytes_recopied) + "\n";
  return out;
}

Rebuilder::Rebuilder(pfs::HybridPfs& pfs, core::Redirector& redirector,
                     Membership& membership, std::string journal_path,
                     RebuildOptions options)
    : pfs_(pfs),
      redirector_(redirector),
      membership_(membership),
      journal_path_(std::move(journal_path)),
      options_(std::move(options)) {}

common::Status Rebuilder::plan(common::Seconds now) {
  if (planned_) {
    return common::Status::failed_precondition("rebuilder: already planned");
  }
  if (!journal_path_.empty()) {
    MHA_RETURN_IF_ERROR(journal_.open(journal_path_));
    if (journal_.active()) {
      return common::Status::failed_precondition(
          "rebuilder: journal holds an unresolved rebuild (phase " +
          std::string(fault::to_string(journal_.phase())) + "); resume() instead");
    }
  }

  const core::Drt& drt = redirector_.drt();
  const std::size_t n = drt.region_count();
  std::vector<bool> is_replica(n, false);
  for (core::RegionId id = 0; id < n; ++id) {
    const core::RegionId rid = drt.replica_of_region(id);
    if (rid != core::kNoRegion) is_replica[rid] = true;
  }

  for (core::RegionId id = 0; id < n; ++id) {
    const std::string& name = drt.region_name(id);
    auto fid = pfs_.open(name);
    if (!fid.is_ok()) return fid.status();
    const pfs::StripeLayout& layout = pfs_.mds().info(*fid).layout;
    bool lost = false;
    for (std::size_t s = 0; s < layout.num_servers(); ++s) {
      if (layout.width(s) > 0 && membership_.dead(s)) lost = true;
    }
    if (!lost) continue;

    Task task;
    task.base = std::string(rebuild_base(name));
    task.old_name = name;
    task.length = pfs_.file_size(*fid);
    if (is_replica[id]) {
      // The replica died; re-fill a fresh copy from the (intact) primary.
      core::RegionId primary = core::kNoRegion;
      for (core::RegionId p = 0; p < n; ++p) {
        if (drt.replica_of_region(p) == id) primary = p;
      }
      if (primary == core::kNoRegion) continue;  // orphan replica; nothing points at it
      auto source = pfs_.open(drt.region_name(primary));
      if (!source.is_ok()) return source.status();
      const pfs::StripeLayout& primary_layout = pfs_.mds().info(*source).layout;
      bool primary_lost = false;
      for (std::size_t s = 0; s < primary_layout.num_servers(); ++s) {
        if (primary_layout.width(s) > 0 && membership_.dead(s)) primary_lost = true;
      }
      if (primary_lost) {
        // Both copies gone — nothing to rebuild from.
        ++report_.lost_regions;
        continue;
      }
      auto server = pick_sserver(primary_layout.widths());
      if (!server.is_ok()) return server.status();
      task.kind = TaskKind::kReplica;
      task.widths.assign(pfs_.num_servers(), 0);
      task.widths[*server] = pfs::kDefaultStripe;
      task.new_name = task.base + ".rep" + std::to_string(membership_.epoch());
      task.source = *source;
    } else {
      // The primary lost stripes; re-home it onto the survivors, content
      // read through the failover path (live stripes + replica).
      const core::RegionId rid = drt.replica_of_region(id);
      if (rid == core::kNoRegion) {
        ++report_.lost_regions;  // unreplicated — genuinely gone
        continue;
      }
      auto replica_fid = pfs_.open(drt.region_name(rid));
      if (!replica_fid.is_ok()) return replica_fid.status();
      const pfs::StripeLayout& replica_layout = pfs_.mds().info(*replica_fid).layout;
      bool replica_lost = false;
      for (std::size_t s = 0; s < replica_layout.num_servers(); ++s) {
        if (replica_layout.width(s) > 0 && membership_.dead(s)) replica_lost = true;
      }
      bool survivor = false;
      task.widths = layout.widths();
      for (std::size_t s = 0; s < task.widths.size(); ++s) {
        if (membership_.dead(s)) task.widths[s] = 0;
        if (task.widths[s] > 0) survivor = true;
      }
      if (!survivor && replica_lost) {
        ++report_.lost_regions;  // every stripe and the replica died together
        continue;
      }
      if (replica_lost && task.length > 0) {
        // Dead stripes are unreadable (replica gone too), so only the
        // surviving-stripe bytes exist — partial loss; leave the region
        // alone and let reads surface kUnavailable over the holes.
        ++report_.lost_regions;
        continue;
      }
      if (!survivor) {
        auto server = pick_sserver({});
        if (!server.is_ok()) return server.status();
        task.widths[*server] = pfs::kDefaultStripe;
      }
      task.kind = TaskKind::kPrimary;
      task.new_name = task.base + ".rb" + std::to_string(membership_.epoch());
      task.source = *fid;
    }
    tasks_.push_back(std::move(task));
  }
  report_.tasks = tasks_.size();

  // Rebuild visibility: dead servers show kRebuilding while tasks are open.
  if (!tasks_.empty()) {
    for (std::size_t s = 0; s < membership_.num_servers(); ++s) {
      if (membership_.state(s) == ServerState::kDead) {
        membership_.set_state(s, ServerState::kRebuilding, now);
      }
    }
  }

  planned_ = true;
  next_issue_ = now;
  if (tasks_.empty()) {
    done_ = true;
    report_.finished_at = now;
    return common::Status::ok();
  }

  if (journal_.is_open()) {
    std::vector<fault::JournalRegion> regions;
    std::vector<fault::JournalEntry> entries;
    regions.reserve(tasks_.size());
    entries.reserve(tasks_.size());
    for (const Task& task : tasks_) {
      regions.push_back(fault::JournalRegion{task.new_name, task.widths});
      entries.push_back(fault::JournalEntry{0, task.length, task.new_name, 0});
    }
    MHA_RETURN_IF_ERROR(journal_.begin("__rebuild__", std::move(regions),
                                       std::move(entries)));
  }
  if (crash("planned")) return injected_crash("planned");

  MHA_RETURN_IF_ERROR(create_dests());
  if (journal_.is_open()) {
    MHA_RETURN_IF_ERROR(journal_.set_phase(fault::JournalPhase::kRegionsCreated));
  }
  if (crash("created")) return injected_crash("created");
  if (journal_.is_open()) {
    MHA_RETURN_IF_ERROR(journal_.set_phase(fault::JournalPhase::kCopying));
  }
  if (crash("copying")) return injected_crash("copying");
  return common::Status::ok();
}

common::Status Rebuilder::create_dests() {
  for (Task& task : tasks_) {
    auto layout = pfs::StripeLayout::create(task.widths);
    if (!layout.is_ok()) return layout.status();
    auto id = pfs_.create_file(task.new_name, std::move(layout).take());
    if (id.is_ok()) {
      task.dest = *id;
      continue;
    }
    if (id.status().code() != common::ErrorCode::kAlreadyExists) return id.status();
    auto open = pfs_.open(task.new_name);  // resumed rebuild: created pre-crash
    if (!open.is_ok()) return open.status();
    task.dest = *open;
  }
  return common::Status::ok();
}

common::Result<std::size_t> Rebuilder::pick_sserver(
    const std::vector<common::ByteCount>& avoid) {
  // Prefer a surviving SServer disjoint from `avoid`'s stripes (placement
  // diversity: the replica should not die with its primary), else any
  // survivor.  Lowest index wins — deterministic at any thread count.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t s = pfs_.num_hservers(); s < pfs_.num_servers(); ++s) {
      if (membership_.dead(s)) continue;
      if (pass == 0 && s < avoid.size() && avoid[s] > 0) continue;
      return s;
    }
  }
  return common::Status::unavailable("rebuilder: no surviving SServer");
}

common::Status Rebuilder::copy_pump(common::Seconds now, bool unbounded) {
  while (task_index_ < tasks_.size()) {
    Task& task = tasks_[task_index_];
    if (!task_entered_) {
      // A resumed rebuild restarts each task from its journaled progress
      // (chunk copies are idempotent, so a torn chunk just re-copies).
      task_pos_ = journal_.is_open()
                      ? std::min(task.length, journal_.copy_progress(task_index_))
                      : 0;
      task_entered_ = true;
    }
    if (task_pos_ >= task.length) {
      if (journal_.is_open()) {
        MHA_RETURN_IF_ERROR(journal_.set_copy_progress(task_index_, task.length));
      }
      if (crash("copied-task-" + std::to_string(task_index_))) {
        return injected_crash("copied-task-" + std::to_string(task_index_));
      }
      ++task_index_;
      task_entered_ = false;
      continue;
    }
    if (!unbounded && next_issue_ > now) return common::Status::ok();

    const common::ByteCount piece =
        std::min<common::ByteCount>(options_.chunk, task.length - task_pos_);
    common::Seconds written = next_issue_;
    MHA_RETURN_IF_ERROR(pfs::copy_range(pfs_, task.source, task_pos_, task.dest, task_pos_,
                                        piece, piece, buffer_, written, options_.job));
    // Pacing: closed-loop when unthrottled (next chunk at this one's
    // completion), token-paced otherwise — whichever is later.
    const common::Seconds pace =
        options_.rate > 0.0 ? static_cast<double>(piece) / options_.rate : 0.0;
    next_issue_ = std::max(written, next_issue_ + pace);
    task_pos_ += piece;
    report_.bytes_copied += piece;
    if (journal_.is_open()) {
      MHA_RETURN_IF_ERROR(journal_.set_copy_progress(task_index_, task_pos_));
    }
  }
  if (journal_.is_open() && journal_.phase() == fault::JournalPhase::kCopying) {
    MHA_RETURN_IF_ERROR(journal_.set_phase(fault::JournalPhase::kCopied));
  }
  if (crash("copied")) return injected_crash("copied");
  return finish(std::max(now, next_issue_));
}

common::Status Rebuilder::finish(common::Seconds now) {
  core::Drt& drt = redirector_.mutable_drt();
  common::Seconds issue = now;

  const auto interned = [&](const std::string& name) {
    for (core::RegionId id = 0; id < drt.region_count(); ++id) {
      if (drt.region_name(id) == name) return true;
    }
    return false;
  };
  std::vector<bool> switched(tasks_.size(), false);
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    switched[i] = interned(tasks_[i].new_name);  // resume redo: already renamed
  }

  // Migration protocol, prepare side: flush cached dirty pages over every
  // logical range a primary rebuild will retarget, so the dirty re-copy
  // below reads current bytes (the flush itself marks entries dirty).
  std::vector<core::DrtEntry> entries = drt.entries();
  if (options_.cache != nullptr) {
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      if (switched[i] || tasks_[i].kind != TaskKind::kPrimary) continue;
      for (const core::DrtEntry& e : entries) {
        if (e.r_file != tasks_[i].old_name) continue;
        auto prep = options_.cache->prepare_migration(e.o_offset, e.length, issue);
        if (!prep.is_ok()) return prep.status();
        issue = std::max(issue, *prep);
      }
    }
    entries = drt.entries();  // re-snapshot: the flush dirtied entries
  }

  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    Task& task = tasks_[i];
    if (switched[i]) {
      task.kind == TaskKind::kPrimary ? ++report_.primaries_rebuilt
                                      : ++report_.replicas_rebuilt;
      continue;
    }
    // Writes that raced the copy marked their entries dirty; re-copy those
    // ranges at this quiescent instant so the new file is current.
    for (const core::DrtEntry& e : entries) {
      const bool mine = task.kind == TaskKind::kPrimary
                            ? e.r_file == task.old_name
                            : e.replica_file == task.old_name;
      if (!mine || !e.dirty) continue;
      common::FileId source = task.source;
      if (task.kind == TaskKind::kReplica) {
        auto primary = pfs_.open(e.r_file);
        if (!primary.is_ok()) return primary.status();
        source = *primary;
      }
      MHA_RETURN_IF_ERROR(pfs::copy_range(pfs_, source, e.r_offset, task.dest, e.r_offset,
                                          e.length, options_.chunk, buffer_, issue,
                                          options_.job));
      report_.bytes_recopied += e.length;
    }
    MHA_RETURN_IF_ERROR(drt.retarget_region(task.old_name, task.new_name));
    task.kind == TaskKind::kPrimary ? ++report_.primaries_rebuilt
                                    : ++report_.replicas_rebuilt;
    if (crash("switched-task-" + std::to_string(i))) {
      return injected_crash("switched-task-" + std::to_string(i));
    }
  }

  // Migration protocol, commit side: drop cached pages whose placement
  // changed so the next access re-probes the DRT against the new layout.
  if (options_.cache != nullptr) {
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      if (tasks_[i].kind != TaskKind::kPrimary) continue;
      for (const core::DrtEntry& e : entries) {
        if (e.r_file == tasks_[i].old_name || e.r_file == tasks_[i].new_name) {
          options_.cache->invalidate(e.o_offset, e.length);
        }
      }
    }
  }

  MHA_RETURN_IF_ERROR(redirector_.refresh(pfs_));
  if (journal_.is_open()) {
    MHA_RETURN_IF_ERROR(journal_.commit());
  }
  if (crash("switched")) return injected_crash("switched");
  if (journal_.is_open()) {
    MHA_RETURN_IF_ERROR(journal_.clear());
    MHA_RETURN_IF_ERROR(journal_.close());
  }

  for (std::size_t s = 0; s < membership_.num_servers(); ++s) {
    if (membership_.state(s) == ServerState::kRebuilding) {
      membership_.set_state(s, ServerState::kDead, issue);
    }
  }
  done_ = true;
  report_.finished_at = std::max(issue, next_issue_);
  MHA_INFO << "rebuilder: " << report_.primaries_rebuilt << " primaries + "
           << report_.replicas_rebuilt << " replicas re-protected, "
           << report_.lost_regions << " lost";
  return common::Status::ok();
}

common::Status Rebuilder::step(common::Seconds now) {
  if (!planned_) return common::Status::failed_precondition("rebuilder: plan() first");
  if (done_) return common::Status::ok();
  return copy_pump(now, /*unbounded=*/false);
}

common::Status Rebuilder::run_to_completion(common::Seconds now) {
  if (!planned_) MHA_RETURN_IF_ERROR(plan(now));
  if (done_) return common::Status::ok();
  return copy_pump(now, /*unbounded=*/true);
}

common::Status Rebuilder::resume(common::Seconds now) {
  if (planned_) return common::Status::failed_precondition("rebuilder: already planned");
  if (journal_path_.empty()) {
    return common::Status::failed_precondition("rebuilder: resume needs a journal");
  }
  MHA_RETURN_IF_ERROR(journal_.open(journal_path_));
  if (!journal_.active()) {
    // Nothing unresolved: either no rebuild ran, or the crash hit between
    // commit and clear (the switch is already durable) — tidy up.
    if (journal_.phase() == fault::JournalPhase::kCommitted) {
      MHA_RETURN_IF_ERROR(journal_.clear());
    }
    MHA_RETURN_IF_ERROR(journal_.close());
    planned_ = true;
    done_ = true;
    report_.finished_at = now;
    return common::Status::ok();
  }
  if (journal_.o_file() != "__rebuild__") {
    return common::Status::failed_precondition(
        "rebuilder: journal holds a placement migration, not a rebuild; run "
        "core::recover_migration");
  }

  // Reconstruct the task list from the journaled plan.  The destination
  // name encodes kind and base; the *current* source/old name is resolved
  // against the live DRT (it may already be the new name if the crash hit
  // mid-switch — those tasks are detected and skipped in finish()).
  const core::Drt& drt = redirector_.drt();
  const std::size_t n = drt.region_count();
  std::vector<bool> is_replica(n, false);
  for (core::RegionId id = 0; id < n; ++id) {
    const core::RegionId rid = drt.replica_of_region(id);
    if (rid != core::kNoRegion) is_replica[rid] = true;
  }
  const auto find_current = [&](std::string_view base,
                                bool want_replica) -> std::string {
    for (core::RegionId id = 0; id < n; ++id) {
      const std::string& name = drt.region_name(id);
      if (rebuild_base(name) == base && is_replica[id] == want_replica) return name;
    }
    return {};
  };

  const std::vector<fault::JournalRegion>& regions = journal_.regions();
  const std::vector<fault::JournalEntry>& journal_entries = journal_.entries();
  tasks_.reserve(regions.size());
  for (std::size_t i = 0; i < regions.size(); ++i) {
    Task task;
    task.new_name = regions[i].name;
    task.widths = regions[i].widths;
    task.length = journal_entries[i].length;
    task.kind = is_replica_name(task.new_name) ? TaskKind::kReplica : TaskKind::kPrimary;
    task.base = std::string(rebuild_base(task.new_name));
    task.old_name = find_current(task.base, task.kind == TaskKind::kReplica);
    if (task.old_name.empty()) {
      return common::Status::corruption("rebuilder: journaled task " + task.new_name +
                                        " matches no live region");
    }
    const std::string source_name =
        task.kind == TaskKind::kPrimary ? task.old_name : find_current(task.base, false);
    auto source = pfs_.open(source_name);
    if (!source.is_ok()) return source.status();
    task.source = *source;
    tasks_.push_back(std::move(task));
  }
  report_.tasks = tasks_.size();
  MHA_RETURN_IF_ERROR(create_dests());

  if (journal_.phase() == fault::JournalPhase::kPlanned ||
      journal_.phase() == fault::JournalPhase::kRegionsCreated) {
    MHA_RETURN_IF_ERROR(journal_.set_phase(fault::JournalPhase::kCopying));
  }
  for (std::size_t s = 0; s < membership_.num_servers(); ++s) {
    if (membership_.state(s) == ServerState::kDead) {
      membership_.set_state(s, ServerState::kRebuilding, now);
    }
  }
  planned_ = true;
  next_issue_ = now;
  if (journal_.phase() == fault::JournalPhase::kCopied) {
    return finish(now);
  }
  return common::Status::ok();  // caller pumps step()/run_to_completion()
}

}  // namespace mha::repair
