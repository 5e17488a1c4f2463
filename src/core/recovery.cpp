#include "core/recovery.hpp"

#include <vector>

#include "common/log.hpp"

namespace mha::core {

namespace {

/// Copy piece size on the recovery timeline (recovery is offline; its
/// traffic is not measured).
constexpr common::ByteCount kChunk = 4 * 1024 * 1024;

/// Drops every journaled region file that exists on the PFS.
common::Status drop_regions(pfs::HybridPfs& pfs, const fault::MigrationJournal& journal,
                            RecoveryReport& report) {
  for (const fault::JournalRegion& region : journal.regions()) {
    if (!pfs.open(region.name).is_ok()) continue;  // never created / already gone
    MHA_RETURN_IF_ERROR(pfs.remove(region.name));
    ++report.regions_removed;
  }
  return common::Status::ok();
}

/// Rebuilds the reordering table the journal describes.
common::Result<Drt> rebuild_drt(const fault::MigrationJournal& journal) {
  Drt drt(journal.o_file());
  for (const fault::JournalEntry& entry : journal.entries()) {
    MHA_RETURN_IF_ERROR(
        drt.insert(DrtEntry{entry.o_offset, entry.length, entry.r_file, entry.r_offset}));
  }
  return drt;
}

}  // namespace

const char* to_string(RecoveryAction action) {
  switch (action) {
    case RecoveryAction::kNone: return "none";
    case RecoveryAction::kRolledBack: return "rolled-back";
    case RecoveryAction::kRolledForward: return "rolled-forward";
    case RecoveryAction::kFoldedBack: return "folded-back";
  }
  return "unknown";
}

common::Result<RecoveryReport> recover_migration(pfs::HybridPfs& pfs,
                                                 fault::MigrationJournal& journal) {
  if (!journal.is_open()) {
    return common::Status::failed_precondition("recovery: journal not open");
  }
  RecoveryReport report;
  const kv::LoadReport& replay = journal.load_report();
  report.journal_torn = replay.tail_truncated;
  if (replay.tail_truncated) {
    MHA_WARN << "recovery: journal tail was torn (" << replay.torn_bytes
             << " bytes truncated" << (replay.crc_mismatch ? ", crc mismatch" : "")
             << "); acting on last durable phase";
  }
  const fault::JournalPhase phase = journal.phase();
  if (phase == fault::JournalPhase::kNone) return report;

  MHA_INFO << "recovery: journal at phase " << fault::to_string(phase) << " for "
           << journal.o_file();

  if (phase == fault::JournalPhase::kPlanned ||
      phase == fault::JournalPhase::kRegionsCreated) {
    // Roll back: no byte of the original file was modified, so dropping
    // whatever region files came into existence restores the pre-migration
    // state exactly.
    MHA_RETURN_IF_ERROR(drop_regions(pfs, journal, report));
    MHA_RETURN_IF_ERROR(journal.clear());
    report.action = RecoveryAction::kRolledBack;
    return report;
  }

  if (phase == fault::JournalPhase::kCopying || phase == fault::JournalPhase::kCopied) {
    // Roll forward: the plan is fully journaled, copies original -> region
    // are idempotent, and per-entry progress records bound the re-work.
    auto original = pfs.open(journal.o_file());
    if (!original.is_ok()) return original.status();
    for (const fault::JournalRegion& region : journal.regions()) {
      if (pfs.open(region.name).is_ok()) continue;
      auto layout = pfs::StripeLayout::create(region.widths);
      if (!layout.is_ok()) return layout.status();
      auto id = pfs.create_file(region.name, std::move(layout).take());
      if (!id.is_ok()) return id.status();
      ++report.regions_created;
    }
    common::Seconds clock = 0.0;
    std::vector<std::uint8_t> buffer;
    const std::vector<fault::JournalEntry>& entries = journal.entries();
    for (std::size_t e = 0; e < entries.size(); ++e) {
      const fault::JournalEntry& entry = entries[e];
      if (journal.copy_progress(e) >= entry.length) continue;  // already copied
      auto region = pfs.open(entry.r_file);
      if (!region.is_ok()) return region.status();
      MHA_RETURN_IF_ERROR(pfs::copy_range(pfs, *original, entry.o_offset, *region,
                                          entry.r_offset, entry.length, kChunk, buffer,
                                          clock));
      MHA_RETURN_IF_ERROR(journal.set_copy_progress(e, entry.length));
      report.bytes_copied += entry.length;
    }
    MHA_RETURN_IF_ERROR(journal.commit());
    MHA_ASSIGN_OR_RETURN(report.drt, rebuild_drt(journal));
    report.has_drt = true;
    MHA_RETURN_IF_ERROR(journal.clear());
    report.action = RecoveryAction::kRolledForward;
    return report;
  }

  if (phase == fault::JournalPhase::kCommitted) {
    // The migration already succeeded; only the redirector needs rebuilding.
    MHA_ASSIGN_OR_RETURN(report.drt, rebuild_drt(journal));
    report.has_drt = true;
    MHA_RETURN_IF_ERROR(journal.clear());
    report.action = RecoveryAction::kRolledForward;
    return report;
  }

  // kFoldback: re-run the idempotent region -> original copies for every
  // region file still present (a region already removed finished its copies
  // before the crash), then drop the regions.
  auto original = pfs.open(journal.o_file());
  if (!original.is_ok()) return original.status();
  common::Seconds clock = 0.0;
  std::vector<std::uint8_t> buffer;
  for (const fault::JournalEntry& entry : journal.entries()) {
    auto region = pfs.open(entry.r_file);
    if (!region.is_ok()) continue;
    MHA_RETURN_IF_ERROR(pfs::copy_range(pfs, *region, entry.r_offset, *original,
                                        entry.o_offset, entry.length, kChunk, buffer, clock));
    report.bytes_copied += entry.length;
  }
  MHA_RETURN_IF_ERROR(drop_regions(pfs, journal, report));
  MHA_RETURN_IF_ERROR(journal.clear());
  report.action = RecoveryAction::kFoldedBack;
  return report;
}

}  // namespace mha::core
