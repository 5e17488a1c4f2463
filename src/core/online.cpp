#include "core/online.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "common/stats.hpp"

namespace mha::core {

namespace {
/// Fixed signature width: size buckets 2^0 .. 2^31 cover every realistic
/// request size and keep signatures comparable across windows.
constexpr std::size_t kSignatureBuckets = 32;
}  // namespace

PatternSignature PatternSignature::of(const std::vector<trace::TraceRecord>& records) {
  PatternSignature sig;
  sig.size_shares.assign(kSignatureBuckets, 0.0);
  if (records.empty()) return sig;
  std::size_t writes = 0;
  for (const trace::TraceRecord& r : records) {
    const std::size_t bucket =
        std::min(common::SizeHistogram::bucket_of(r.size), kSignatureBuckets - 1);
    sig.size_shares[bucket] += 1.0;
    if (r.op == common::OpType::kWrite) ++writes;
  }
  for (double& share : sig.size_shares) share /= static_cast<double>(records.size());
  sig.write_fraction = static_cast<double>(writes) / static_cast<double>(records.size());
  return sig;
}

double PatternSignature::distance(const PatternSignature& other) const {
  double d = std::abs(write_fraction - other.write_fraction);
  const std::size_t n = std::max(size_shares.size(), other.size_shares.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double a = i < size_shares.size() ? size_shares[i] : 0.0;
    const double b = i < other.size_shares.size() ? other.size_shares[i] : 0.0;
    d += std::abs(a - b);
  }
  return d;
}

common::Result<std::unique_ptr<OnlineMha>> OnlineMha::create(pfs::HybridPfs& pfs,
                                                             std::string file_name,
                                                             OnlineOptions options) {
  auto id = pfs.open(file_name);
  if (!id.is_ok()) return id.status();
  auto online = std::unique_ptr<OnlineMha>(
      new OnlineMha(pfs, std::move(file_name), std::move(options)));
  online->original_id_ = *id;
  return online;
}

void OnlineMha::translate(common::Offset offset, common::ByteCount size,
                          io::SegmentList& out) {
  if (redirector_ != nullptr) {
    redirector_->translate(offset, size, out);
    return;
  }
  out.clear();
  out.push_back(io::RedirectSegment{original_id_, offset, size, offset});
}

common::Seconds OnlineMha::lookup_overhead() const {
  return redirector_ != nullptr ? redirector_->lookup_overhead() : 0.0;
}

void OnlineMha::observe(const trace::TraceRecord& record) {
  ++observed_;
  window_.push_back(record);
  // Keep only the most recent window (simple ring via erase-from-front in
  // bulk to stay amortised O(1)).
  if (window_.size() > 2 * options_.window) {
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<long>(window_.size() - options_.window));
  }
}

common::Result<bool> OnlineMha::maybe_adapt() {
  if (window_.size() < std::max(options_.min_records, std::size_t{1})) return false;
  std::vector<trace::TraceRecord> recent(
      window_.end() - static_cast<long>(std::min(options_.window, window_.size())),
      window_.end());
  const PatternSignature now = PatternSignature::of(recent);
  if (has_plan_ && now.distance(planned_for_) < options_.drift_threshold) {
    return false;
  }
  MHA_RETURN_IF_ERROR(adapt_now());
  return true;
}

common::Status OnlineMha::roll_back() {
  if (redirector_ == nullptr) return common::Status::ok();
  auto original = pfs_->open(file_name_);
  if (!original.is_ok()) return original.status();

  const std::vector<DrtEntry> entries = redirector_->drt().entries();
  std::vector<std::string> regions;
  for (const DrtEntry& entry : entries) {
    if (std::find(regions.begin(), regions.end(), entry.r_file) == regions.end()) {
      regions.push_back(entry.r_file);
    }
  }

  // When journaling is on, record the fold-back (regions with their layout
  // widths + every copy) before touching a byte, so a crash mid-fold-back
  // recovers by re-running the idempotent region -> original copies.
  fault::MigrationJournal journal;
  const auto crash_at = [&](std::string_view point) {
    return options_.mha.crash_at && options_.mha.crash_at(point);
  };
  if (!options_.mha.journal_path.empty()) {
    MHA_RETURN_IF_ERROR(journal.open(options_.mha.journal_path));
    if (journal.active()) {
      return common::Status::failed_precondition(
          "online: journal holds an unresolved migration (phase " +
          std::string(fault::to_string(journal.phase())) +
          "); run core::recover_migration first");
    }
    std::vector<fault::JournalRegion> journal_regions;
    journal_regions.reserve(regions.size());
    for (const std::string& name : regions) {
      auto id = pfs_->open(name);
      if (!id.is_ok()) return id.status();
      journal_regions.push_back(
          fault::JournalRegion{name, pfs_->mds().info(*id).layout.widths()});
    }
    std::vector<fault::JournalEntry> journal_entries;
    journal_entries.reserve(entries.size());
    for (const DrtEntry& entry : entries) {
      journal_entries.push_back(
          fault::JournalEntry{entry.o_offset, entry.length, entry.r_file, entry.r_offset});
    }
    MHA_RETURN_IF_ERROR(journal.begin_foldback(file_name_, std::move(journal_regions),
                                               std::move(journal_entries)));
  }
  if (crash_at("foldback-begun")) {
    return common::Status::io_error("injected crash at foldback-begun");
  }

  constexpr common::ByteCount kChunk = 4 * 1024 * 1024;
  std::vector<std::uint8_t> buffer;
  common::Seconds clock = 0.0;
  for (const DrtEntry& entry : entries) {
    auto region = pfs_->open(entry.r_file);
    if (!region.is_ok()) return region.status();
    MHA_RETURN_IF_ERROR(pfs::copy_range(*pfs_, *region, entry.r_offset, *original,
                                        entry.o_offset, entry.length, kChunk, buffer, clock));
  }
  if (crash_at("foldback-copied")) {
    return common::Status::io_error("injected crash at foldback-copied");
  }
  redirector_.reset();
  for (const std::string& region : regions) {
    MHA_RETURN_IF_ERROR(pfs_->remove(region));
  }
  if (journal.is_open()) {
    MHA_RETURN_IF_ERROR(journal.clear());
    MHA_RETURN_IF_ERROR(journal.close());
  }
  return common::Status::ok();
}

common::Status OnlineMha::adapt_now() {
  if (window_.empty()) return common::Status::failed_precondition("online: nothing observed");
  std::vector<trace::TraceRecord> recent(
      window_.end() - static_cast<long>(std::min(options_.window, window_.size())),
      window_.end());

  // Step 1: fold the current layout back so the original file is whole.
  MHA_RETURN_IF_ERROR(roll_back());

  // Steps 2-4: plan on the fresh window, place into versioned regions, swap.
  trace::Trace trace;
  trace.file_name = file_name_;
  trace.records = std::move(recent);

  MhaOptions options = options_.mha;
  options.reorganizer.region_suffix = ".mha.v" + std::to_string(++version_) + ".r";
  auto deployment = MhaPipeline::deploy(*pfs_, trace, options);
  if (!deployment.is_ok()) return deployment.status();

  redirector_ = std::move(deployment->redirector);
  planned_for_ = PatternSignature::of(trace.records);
  has_plan_ = true;
  ++adaptations_;
  MHA_INFO << "online: adapted to new pattern (v" << version_ << ", "
           << deployment->plan.plan.regions.size() << " regions)";
  return common::Status::ok();
}

}  // namespace mha::core
