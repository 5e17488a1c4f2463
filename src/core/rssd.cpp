#include "core/rssd.hpp"

#include <algorithm>
#include <limits>

#include "common/units.hpp"
#include "exec/thread_pool.hpp"

namespace mha::core {

std::string StripePair::to_string() const {
  return std::string("<")
      .append(common::format_bytes(h))
      .append(", ")
      .append(common::format_bytes(s))
      .append(">");
}

namespace {

common::ByteCount round_up(common::ByteCount v, common::ByteCount step) {
  return (v + step - 1) / step * step;
}

}  // namespace

common::Result<RssdResult> determine_stripes(const CostModel& model,
                                             const std::vector<ModelRequest>& requests,
                                             const RssdOptions& options) {
  if (requests.empty()) {
    return common::Status::invalid_argument("RSSD: empty region");
  }
  if (options.step == 0) {
    return common::Status::invalid_argument("RSSD: step must be positive");
  }
  const std::size_t m = model.params().num_hservers;
  const std::size_t n = model.params().num_sservers;
  if (n == 0) {
    return common::Status::invalid_argument("RSSD: hybrid PFS needs at least one SServer");
  }

  common::ByteCount r_max = 0;
  double size_sum = 0.0;
  for (const ModelRequest& r : requests) {
    r_max = std::max(r_max, r.size);
    size_sum += static_cast<double>(r.size);
  }
  if (r_max == 0) return common::Status::invalid_argument("RSSD: all requests empty");

  common::ByteCount bound_h;
  common::ByteCount bound_s;
  if (options.adaptive_bounds) {
    // Algorithm 2 lines 3-7.
    if (r_max < (m + n) * options.bound_unit) {
      bound_h = r_max;
      bound_s = r_max;
    } else {
      bound_h = m > 0 ? r_max / m : 0;
      bound_s = r_max / n;
    }
  } else {
    // HARL policy: bound both by the average request size.
    const auto avg = static_cast<common::ByteCount>(size_sum / static_cast<double>(requests.size()));
    bound_h = avg;
    bound_s = avg;
  }
  // Sweep on step multiples; guarantee at least one candidate pair exists
  // even for tiny requests (s must exceed h, so B_s >= step).
  bound_h = round_up(bound_h, options.step);
  bound_s = std::max(round_up(bound_s, options.step), options.step);

  // Group the region into its concurrent batches (deduplicated by shape) so
  // the sweep evaluates exact per-server accumulations at a cost that scales
  // with batch-shape diversity, not request count.
  const BatchedRegion region =
      BatchedRegion::build(requests, /*batch_by_time=*/model.concurrency_aware());

  // One task per h column: the column's inner s loop is pure (const model,
  // const region), so columns can run concurrently.  Reducing the column
  // results in ascending h order with strict < reproduces the serial
  // (h outer, s inner) argmin bit for bit.
  struct Column {
    double best_cost = std::numeric_limits<double>::infinity();
    StripePair best;
    std::size_t pairs_evaluated = 0;
  };
  std::vector<common::ByteCount> h_values;
  for (common::ByteCount h = 0; h <= bound_h; h += options.step) {
    h_values.push_back(h);
    // When bound_h >= bound_s the inner loop dries up for large h; the
    // remaining iterations cannot produce candidates.
    if (h + options.step > bound_s) break;
  }
  const auto sweep_column = [&](std::size_t index) {
    Column column;
    const common::ByteCount h = h_values[index];
    for (common::ByteCount s = h + options.step; s <= bound_s; s += options.step) {
      const double cost = region.cost(model, h, s);
      ++column.pairs_evaluated;
      if (cost < column.best_cost) {
        column.best_cost = cost;
        column.best = StripePair{h, s};
      }
    }
    return column;
  };

  exec::ThreadPool& pool = exec::default_pool();
  const std::size_t candidate_estimate = h_values.size() * (bound_s / options.step);
  std::vector<Column> columns;
  if (options.parallel && pool.thread_count() > 1 && h_values.size() > 1 &&
      candidate_estimate >= options.min_parallel_candidates) {
    columns = pool.parallel_map(h_values.size(), sweep_column);
  } else {
    columns.reserve(h_values.size());
    for (std::size_t i = 0; i < h_values.size(); ++i) columns.push_back(sweep_column(i));
  }

  RssdResult result;
  result.best_cost = std::numeric_limits<double>::infinity();
  for (const Column& column : columns) {
    result.pairs_evaluated += column.pairs_evaluated;
    if (column.best_cost < result.best_cost) {
      result.best_cost = column.best_cost;
      result.best = column.best;
    }
  }
  if (result.pairs_evaluated == 0) {
    return common::Status::failed_precondition("RSSD: no candidate stripe pair in bounds");
  }
  return result;
}

}  // namespace mha::core
