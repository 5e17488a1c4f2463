// Machine-readable bench output: every bench binary can record one
// CellRecord per (case, variant) grid cell — wall time, replay virtual
// time, bandwidth — and dump the run as BENCH_<name>.json via --json.
// scripts/bench_all.sh regenerates the full trajectory; CI diffs the
// tables and archives the JSON as artifacts.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace mha::bench {

/// One grid cell of a bench run.
struct CellRecord {
  std::string case_label;       ///< workload/case row (e.g. "7h:1s", "harsh")
  std::string variant;          ///< scheme or scheme+policy column (e.g. "MHA")
  double wall_seconds = 0.0;    ///< host wall-clock for prepare+replay
  double virtual_seconds = 0.0; ///< simulated makespan of the replay
  double mib_per_s = 0.0;       ///< aggregate bandwidth (0 when n/a)
  double ops_per_s = 0.0;       ///< throughput of a timed kernel (0 when n/a)
  double ns_per_op = 0.0;       ///< inverse, in nanoseconds (0 when n/a)
};

/// Collects cells (thread-safe: parallel grid cells record concurrently)
/// and serialises them as JSON.  Cells are sorted by insertion `sequence`
/// assigned by the caller, so the file is deterministic regardless of
/// completion order.
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name = "bench");

  void set_name(std::string bench_name);
  const std::string& name() const { return name_; }

  /// Records one cell.  `sequence` fixes the cell's position in the JSON
  /// (use the grid index); records with equal sequence keep insertion order.
  void add(std::size_t sequence, CellRecord record);

  std::size_t size() const;

  /// Writes the report to `path`.  `threads`/`scale` document the run
  /// configuration; `total_wall_seconds` is the whole binary's wall time.
  common::Status write_json(const std::string& path, std::size_t threads, double scale,
                            double total_wall_seconds) const;

 private:
  std::string name_;
  mutable std::mutex mutex_;
  std::vector<std::pair<std::size_t, CellRecord>> cells_;
};

/// Monotonic wall-clock timestamp in seconds (for CellRecord::wall_seconds).
double wall_now();

/// Sink for a timed kernel's result: the empty asm takes `value`'s address
/// and clobbers memory, so the optimiser must compute it every iteration.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

}  // namespace mha::bench
