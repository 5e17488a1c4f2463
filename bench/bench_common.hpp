// Shared harness for the figure-regeneration benches.
//
// Every bench binary reproduces one table/figure of the paper's evaluation:
// it builds the paper's workload (scaled to simulator-friendly sizes),
// prepares each layout scheme on a fresh simulated cluster, replays the
// trace, and prints the same rows/series the paper plots.  Absolute numbers
// are simulator numbers; the shapes (who wins, by what factor, where
// crossovers fall) are the reproduction target — see EXPERIMENTS.md.
//
// Execution model: benches call bench::init(name, argc, argv) first, which
// parses the shared flags —
//
//   --threads=N   total concurrency for the grid (default MHA_THREADS env
//                 or hardware_concurrency); every (case, scheme) cell runs
//                 on its own timing-only HybridPfs via
//                 workloads::run_scheme, results land by grid index, and
//                 all printing happens after the join, so stdout is
//                 byte-identical at any N.
//   --json=PATH   write a timed machine-readable report (per-cell wall
//                 time, replay virtual time, bandwidth) to PATH.
//   --scale=F     shrink workloads by factor F (0 < F <= 1) for smoke runs;
//                 benches route their size knobs through scaled_bytes /
//                 scaled_procs / scaled_count.
//
// and return through bench::finish(code), which writes the JSON report.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "exec/thread_pool.hpp"
#include "layouts/scheme.hpp"
#include "sim/cluster_sim.hpp"
#include "trace/record.hpp"
#include "workloads/replayer.hpp"

namespace mha::bench {

struct BenchOptions {
  std::size_t threads = 1;  ///< resolved total concurrency
  double scale = 1.0;       ///< workload scale factor (--scale)
  std::string json_path;    ///< empty => no JSON report
};

/// Parses the shared flags, sizes exec::default_pool(), and names the run's
/// report.  Unknown flags abort with a usage message.  Call first in main.
void init(const std::string& bench_name, int argc, char** argv);

/// Options resolved by init() (defaults when init was never called).
const BenchOptions& options();

/// The process-wide report init() named; cells recorded here land in the
/// --json output.  run_figure records automatically; hand-rolled grids call
/// report().add(sequence, cell) themselves.
BenchReport& report();

/// Writes the JSON report when --json was given; returns `code` (so mains
/// can `return bench::finish(code);`).
int finish(int code = 0);

/// --scale helpers: multiply a workload knob by options().scale, clamped to
/// a floor that keeps the workload well-formed.
common::ByteCount scaled_bytes(common::ByteCount bytes,
                               common::ByteCount floor = 4u * 1024 * 1024);
int scaled_procs(int procs, int floor = 2);
int scaled_count(int count, int floor = 1);

/// The paper's default testbed: 6 HServers + 2 SServers.
inline sim::ClusterConfig paper_cluster(std::size_t h = 6, std::size_t s = 2) {
  sim::ClusterConfig c;
  c.num_hservers = h;
  c.num_sservers = s;
  return c;
}

/// Runs one scheme on a fresh timing-only PFS; returns MiB/s (0 on error).
double run_bandwidth(layouts::LayoutScheme& scheme, const sim::ClusterConfig& cluster,
                     const trace::Trace& trace,
                     workloads::ReplayMode mode = workloads::ReplayMode::kSynchronous);

/// Runs one scheme and returns the full replay result.
common::Result<workloads::ReplayResult> run_full(
    layouts::LayoutScheme& scheme, const sim::ClusterConfig& cluster,
    const trace::Trace& trace,
    workloads::ReplayMode mode = workloads::ReplayMode::kSynchronous);

/// The standard scheme column at `index` of scheme_columns() (fresh
/// instance; cells construct their own scheme so grid tasks share nothing).
std::unique_ptr<layouts::LayoutScheme> make_scheme(std::size_t index);

/// One row of a figure table: a label plus one bandwidth per scheme.
struct Row {
  std::string label;
  std::vector<double> values;
};

/// Prints a paper-style table: columns DEF/AAL/HARL/MHA (or custom), values
/// in MiB/s, plus MHA-vs-DEF and MHA-vs-HARL improvement percentages when
/// the standard four columns are used.
void print_table(const std::string& title, const std::vector<std::string>& columns,
                 const std::vector<Row>& rows, const char* unit = "MiB/s");

/// Convenience: run all four schemes over a set of labelled traces and
/// print the table.  Each (case, scheme) cell is an independent task on the
/// exec pool (its own timing-only HybridPfs via workloads::run_scheme); rows
/// come back in case order with
/// per-cell timings recorded in report().  Returns the rows.
std::vector<Row> run_figure(const std::string& title,
                            const std::vector<std::pair<std::string, trace::Trace>>& cases,
                            const sim::ClusterConfig& cluster,
                            workloads::ReplayMode mode = workloads::ReplayMode::kSynchronous);

/// Standard scheme column labels.
std::vector<std::string> scheme_columns();

}  // namespace mha::bench
