#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/units.hpp"

namespace mha::bench {

namespace {

BenchOptions g_options;
BenchReport g_report;
double g_start_wall = 0.0;

[[noreturn]] void usage(const std::string& name, const char* bad_arg) {
  std::fprintf(stderr,
               "%s: unknown argument '%s'\n"
               "usage: %s [--threads=N] [--json=PATH] [--scale=F]\n",
               name.c_str(), bad_arg, name.c_str());
  std::exit(2);
}

}  // namespace

void init(const std::string& bench_name, int argc, char** argv) {
  g_report.set_name(bench_name);
  g_start_wall = wall_now();
  g_options.threads = exec::default_threads();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      const long value = std::strtol(arg + 10, nullptr, 10);
      if (value <= 0) usage(bench_name, arg);
      g_options.threads = static_cast<std::size_t>(value);
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      g_options.json_path = arg + 7;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      const double value = std::strtod(arg + 8, nullptr);
      if (!(value > 0.0) || value > 1.0) usage(bench_name, arg);
      g_options.scale = value;
    } else {
      usage(bench_name, arg);
    }
  }
  exec::set_default_threads(g_options.threads);
}

const BenchOptions& options() { return g_options; }

BenchReport& report() { return g_report; }

int finish(int code) {
  if (!g_options.json_path.empty()) {
    const common::Status status = g_report.write_json(
        g_options.json_path, g_options.threads, g_options.scale, wall_now() - g_start_wall);
    if (!status.is_ok()) {
      std::fprintf(stderr, "[bench] %s\n", status.to_string().c_str());
      if (code == 0) code = 1;
    }
  }
  return code;
}

common::ByteCount scaled_bytes(common::ByteCount bytes, common::ByteCount floor) {
  const auto scaled = static_cast<common::ByteCount>(
      std::llround(static_cast<double>(bytes) * g_options.scale));
  return std::max(scaled, std::min(bytes, floor));
}

int scaled_procs(int procs, int floor) {
  const int scaled = static_cast<int>(std::llround(procs * g_options.scale));
  return std::max(scaled, std::min(procs, floor));
}

int scaled_count(int count, int floor) {
  const int scaled = static_cast<int>(std::llround(count * g_options.scale));
  return std::max(scaled, std::min(count, floor));
}

double run_bandwidth(layouts::LayoutScheme& scheme, const sim::ClusterConfig& cluster,
                     const trace::Trace& trace, workloads::ReplayMode mode) {
  auto result = run_full(scheme, cluster, trace, mode);
  if (!result.is_ok()) {
    std::fprintf(stderr, "[bench] %s failed: %s\n", scheme.name().c_str(),
                 result.status().to_string().c_str());
    return 0.0;
  }
  return result->aggregate_bandwidth / static_cast<double>(common::kMiB);
}

common::Result<workloads::ReplayResult> run_full(layouts::LayoutScheme& scheme,
                                                 const sim::ClusterConfig& cluster,
                                                 const trace::Trace& trace,
                                                 workloads::ReplayMode mode) {
  workloads::ReplayOptions options;
  options.mode = mode;
  return workloads::run_scheme(scheme, cluster, trace, options, /*store_data=*/false);
}

std::vector<std::string> scheme_columns() { return {"DEF", "AAL", "HARL", "MHA"}; }

std::unique_ptr<layouts::LayoutScheme> make_scheme(std::size_t index) {
  switch (index) {
    case 0: return layouts::make_def();
    case 1: return layouts::make_aal();
    case 2: return layouts::make_harl();
    default: return layouts::make_mha();
  }
}

void print_table(const std::string& title, const std::vector<std::string>& columns,
                 const std::vector<Row>& rows, const char* unit) {
  std::printf("\n%s  (%s)\n", title.c_str(), unit);
  std::printf("%-14s", "");
  for (const auto& col : columns) std::printf("%10s", col.c_str());
  const bool standard = columns == scheme_columns();
  if (standard) std::printf("%12s%12s", "MHA/DEF", "MHA/HARL");
  std::printf("\n");
  for (const Row& row : rows) {
    std::printf("%-14s", row.label.c_str());
    for (double v : row.values) std::printf("%10.1f", v);
    if (standard && row.values.size() == 4 && row.values[0] > 0 && row.values[2] > 0) {
      std::printf("%11.1f%%%11.1f%%", (row.values[3] / row.values[0] - 1.0) * 100.0,
                  (row.values[3] / row.values[2] - 1.0) * 100.0);
    }
    std::printf("\n");
  }
}

std::vector<Row> run_figure(const std::string& title,
                            const std::vector<std::pair<std::string, trace::Trace>>& cases,
                            const sim::ClusterConfig& cluster, workloads::ReplayMode mode) {
  const std::size_t num_schemes = scheme_columns().size();
  const std::size_t num_cells = cases.size() * num_schemes;

  struct Cell {
    double bandwidth = 0.0;
    double makespan = 0.0;
    double wall = 0.0;
  };
  // One task per (case, scheme) cell.  Each builds its own scheme instance
  // and timing-only HybridPfs (workloads::run_scheme), reads the trace by
  // const&, and lands its result in slot `index`, so the table is
  // independent of scheduling order.
  auto cells = exec::default_pool().parallel_map(num_cells, [&](std::size_t index) {
    const std::size_t case_index = index / num_schemes;
    const std::size_t scheme_index = index % num_schemes;
    const trace::Trace& trace = cases[case_index].second;
    Cell cell;
    const double start = wall_now();
    auto scheme = make_scheme(scheme_index);
    auto result = run_full(*scheme, cluster, trace, mode);
    cell.wall = wall_now() - start;
    if (result.is_ok()) {
      cell.bandwidth = result->aggregate_bandwidth / static_cast<double>(common::kMiB);
      cell.makespan = result->makespan;
    } else {
      std::fprintf(stderr, "[bench] %s failed: %s\n", scheme->name().c_str(),
                   result.status().to_string().c_str());
    }
    return cell;
  });

  const std::vector<std::string> columns = scheme_columns();
  std::vector<Row> rows;
  rows.reserve(cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    Row row;
    row.label = cases[c].first;
    for (std::size_t s = 0; s < num_schemes; ++s) {
      const Cell& cell = cells[c * num_schemes + s];
      row.values.push_back(cell.bandwidth);
      g_report.add(g_report.size(),
                   CellRecord{title + " / " + row.label, columns[s], cell.wall,
                              cell.makespan, cell.bandwidth});
    }
    rows.push_back(std::move(row));
  }
  print_table(title, columns, rows);
  return rows;
}

}  // namespace mha::bench
