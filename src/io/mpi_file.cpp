#include "io/mpi_file.hpp"

#include <algorithm>

namespace mha::io {

common::Result<MpiFile> MpiFile::open(pfs::HybridPfs& pfs, MpiSim& mpi,
                                      const std::string& name) {
  auto id = pfs.open(name);
  if (!id.is_ok()) return id.status();
  return MpiFile(pfs, mpi, name, *id);
}

template <typename Op>
void MpiFile::run_ops(common::OpType op, std::span<const Op> ops, BulkOutcomeVec& folded) {
  // Translate in ascending-offset order under the handle's cursor so each
  // lookup resumes where the previous one ended (the DRT sequential-hint
  // path), within a batch and across calls alike; the per-op segment lists
  // land in a flat store addressed by op index, so the pfs batch below is
  // still assembled in op order.
  batch_order_.clear();
  for (std::uint32_t i = 0; i < ops.size(); ++i) batch_order_.push_back(i);
  std::sort(batch_order_.begin(), batch_order_.end(),
            [&ops](std::uint32_t a, std::uint32_t b) {
              if (ops[a].offset != ops[b].offset) return ops[a].offset < ops[b].offset;
              return a < b;
            });
  seg_store_.clear();
  seg_range_.resize(ops.size());
  for (const std::uint32_t idx : batch_order_) {
    const Op& o = ops[idx];
    segments_.clear();
    if (interceptor_ != nullptr) {
      interceptor_->translate(o.offset, o.size, segments_, cursor_);
      if (op == common::OpType::kWrite) interceptor_->note_write(o.offset, o.size);
    } else {
      segments_.push_back(RedirectSegment{file_, o.offset, o.size, o.offset});
    }
    seg_range_[idx] = {static_cast<std::uint32_t>(seg_store_.size()),
                       static_cast<std::uint32_t>(segments_.size())};
    for (const RedirectSegment& seg : segments_) seg_store_.push_back(seg);
  }

  // One pfs batch for every segment of every op, grouped by op index so a
  // failing segment skips its later siblings; each segment carries its op's
  // issue instant, job and deadline.
  batch_reqs_.clear();
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    const Op& o = ops[i];
    const auto [begin, count] = seg_range_[i];
    for (std::uint32_t k = begin; k < begin + count; ++k) {
      const RedirectSegment& seg = seg_store_[k];
      const common::Offset into = seg.logical_offset - o.offset;
      batch_reqs_.push_back(pfs::BatchRequest{
          seg.file, seg.offset, seg.length,
          o.read_out != nullptr ? o.read_out + into : nullptr,
          o.write_data != nullptr ? o.write_data + into : nullptr, batch_issue_[i],
          o.job, o.deadline, i});
    }
  }
  const std::span<const pfs::BatchRequest> reqs(batch_reqs_.data(), batch_reqs_.size());
  if (op == common::OpType::kRead) {
    pfs_->read_batch(reqs, batch_results_);
  } else {
    pfs_->write_batch(reqs, batch_results_);
  }

  // Fold segment outcomes back per op: the first failing segment's Status
  // wins (its later siblings were group-skipped), a successful op completes
  // with its slowest segment, and a failed one at its issue instant.
  folded.clear();
  folded.resize(ops.size());
  std::size_t k = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::uint32_t count = seg_range_[i].second;
    common::Seconds completion = batch_issue_[i];
    common::Status status;
    for (std::uint32_t m = 0; m < count; ++m, ++k) {
      const pfs::BatchOpResult& res = batch_results_[k];
      if (status.is_ok() && !res.skipped && !res.status.is_ok()) status = res.status;
      if (status.is_ok()) completion = std::max(completion, res.io.completion);
    }
    folded[i].completion = status.is_ok() ? completion : batch_issue_[i];
    folded[i].status = std::move(status);
  }
}

void MpiFile::do_op_batch(common::OpType op, std::span<const BatchOp> ops,
                          BatchOutcomeVec& results) {
  results.clear();
  results.resize(ops.size());
  if (ops.empty()) return;

  // Client timeline per op: start at the rank's current clock, then the
  // tracer and redirection overheads.  Ranks are distinct (see BatchOp), so
  // no op's issue time depends on another's completion — the same
  // independence ops of one synchronous iteration have.
  batch_issue_.clear();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    common::Seconds issue = mpi_->now(ops[i].rank);
    results[i].op.start = issue;
    if (tracer_ != nullptr) issue += tracer_->per_op_overhead();
    if (interceptor_ != nullptr) issue += interceptor_->lookup_overhead();
    batch_issue_.push_back(issue);
  }
  run_ops(op, ops, op_outcomes_);

  // A failed op leaves its rank's clock untouched; a successful one
  // advances its rank and is traced.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const BatchOp& o = ops[i];
    if (!op_outcomes_[i].status.is_ok()) {
      results[i].status = std::move(op_outcomes_[i].status);
      continue;
    }
    const common::Seconds completion = op_outcomes_[i].completion;
    results[i].op.completion = completion;
    mpi_->advance(o.rank, completion);
    if (tracer_ != nullptr) {
      tracer_->record(o.rank, next_fd_, op, o.offset, o.size, results[i].op.start,
                      completion - results[i].op.start);
    }
  }
}

common::Result<OpResult> MpiFile::do_one(common::OpType op, const BatchOp& o) {
  BatchOutcomeVec results;
  do_op_batch(op, {&o, 1}, results);
  if (!results[0].status.is_ok()) return std::move(results[0].status);
  return results[0].op;
}

void MpiFile::dispatch_bulk(common::OpType op, std::span<const BulkOp> ops,
                            common::Seconds issue, BulkOutcomeVec& results) {
  results.clear();
  if (ops.empty()) return;
  // One client, one instant: every op issues at `issue` plus its own
  // redirection lookup (batching saves server round trips, not table
  // consultations).
  const common::Seconds lookup =
      interceptor_ != nullptr ? interceptor_->lookup_overhead() : 0.0;
  batch_issue_.clear();
  for (std::size_t i = 0; i < ops.size(); ++i) batch_issue_.push_back(issue + lookup);
  run_ops(op, ops, results);
}

void MpiFile::read_at_batch(std::span<const BatchOp> ops, BatchOutcomeVec& results) {
  do_op_batch(common::OpType::kRead, ops, results);
}

void MpiFile::write_at_batch(std::span<const BatchOp> ops, BatchOutcomeVec& results) {
  do_op_batch(common::OpType::kWrite, ops, results);
}

common::Result<OpResult> MpiFile::read_at(int rank, common::Offset offset, std::uint8_t* out,
                                          common::ByteCount size, common::JobId job,
                                          common::Seconds deadline) {
  const BatchOp o{rank, offset, size, out, nullptr, job, deadline};
  return do_one(common::OpType::kRead, o);
}

common::Result<OpResult> MpiFile::write_at(int rank, common::Offset offset,
                                           const std::uint8_t* data, common::ByteCount size,
                                           common::JobId job, common::Seconds deadline) {
  const BatchOp o{rank, offset, size, nullptr, data, job, deadline};
  return do_one(common::OpType::kWrite, o);
}

common::Result<OpResult> MpiFile::write_at(int rank, common::Offset offset,
                                           const std::vector<std::uint8_t>& data) {
  return write_at(rank, offset, data.data(), data.size());
}

common::Result<std::vector<std::uint8_t>> MpiFile::read_vec(int rank, common::Offset offset,
                                                            common::ByteCount size) {
  std::vector<std::uint8_t> out(size);
  auto r = read_at(rank, offset, out.data(), size);
  if (!r.is_ok()) return r.status();
  return out;
}

}  // namespace mha::io
