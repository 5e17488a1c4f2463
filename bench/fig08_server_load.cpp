// Fig. 8: per-server I/O time under each layout scheme.
//
// Paper setup: the "128+256" mixed-size IOR write workload; the plot shows
// each server's I/O time normalized to the minimum server time under MHA.
// S0-S5 are HServers, S6-S7 SServers.
//
// Expected shape: DEF and AAL heavily skewed (HServers several times busier
// than SServers); HARL and MHA nearly even, with MHA's times lowest.
#include "bench_common.hpp"

#include "common/units.hpp"
#include "workloads/ior.hpp"

using namespace mha;
using namespace mha::common::literals;

int main(int argc, char** argv) {
  bench::init("fig08_server_load", argc, argv);
  std::printf("=== Fig. 8: per-server I/O time, IOR 128+256 KiB writes (32 procs, 6h:2s) ===\n");

  workloads::IorMixedSizesConfig config;
  config.num_procs = bench::scaled_procs(32);
  config.request_sizes = {128_KiB, 256_KiB};
  config.file_size = bench::scaled_bytes(256_MiB);
  config.op = common::OpType::kWrite;
  config.file_name = "fig8.ior";
  config.seed = 8;
  const trace::Trace trace = workloads::ior_mixed_sizes(config);
  const auto cluster = bench::paper_cluster();

  // Gather per-server busy time for each scheme: one pool task per scheme,
  // each on a fresh ClusterSim, results landing in scheme order.
  struct SchemeLoad {
    std::string name;
    std::vector<double> busy;  // per server
    bool ok = false;
  };
  const std::size_t num_schemes = bench::scheme_columns().size();
  auto loads = exec::default_pool().parallel_map(num_schemes, [&](std::size_t s) {
    SchemeLoad load;
    auto scheme = bench::make_scheme(s);
    load.name = scheme->name();
    const double start = bench::wall_now();
    auto result = bench::run_full(*scheme, cluster, trace);
    const double wall = bench::wall_now() - start;
    if (!result.is_ok()) {
      std::fprintf(stderr, "%s failed: %s\n", load.name.c_str(),
                   result.status().to_string().c_str());
      return load;
    }
    for (const auto& st : result->server_stats) load.busy.push_back(st.busy_time);
    bench::report().add(s, bench::CellRecord{
        "Fig. 8", load.name, wall, result->makespan,
        result->aggregate_bandwidth / static_cast<double>(common::kMiB)});
    load.ok = true;
    return load;
  });

  std::vector<std::vector<double>> busy;  // [scheme][server]
  std::vector<std::string> names;
  for (auto& load : loads) {
    if (!load.ok) return bench::finish(1);
    busy.push_back(std::move(load.busy));
    names.push_back(std::move(load.name));
  }

  // Normalize to the minimum server time under MHA (paper's normalization).
  double mha_min = 1e300;
  for (double v : busy.back()) {
    if (v > 0) mha_min = std::min(mha_min, v);
  }

  std::vector<bench::Row> rows;
  const std::size_t servers = busy.front().size();
  for (std::size_t s = 0; s < servers; ++s) {
    bench::Row row;
    row.label = std::string("S")
                    .append(std::to_string(s))
                    .append(s < cluster.num_hservers ? " (H)" : " (S)");
    for (std::size_t k = 0; k < busy.size(); ++k) row.values.push_back(busy[k][s] / mha_min);
    rows.push_back(std::move(row));
  }
  bench::print_table("Fig. 8: server I/O time (normalized to min under MHA)", names, rows,
                     "x min(MHA)");

  // Skew summary: max/min busy ratio per scheme (load imbalance).
  std::printf("\nload imbalance (max/min busy time):\n");
  for (std::size_t k = 0; k < busy.size(); ++k) {
    double lo = 1e300, hi = 0;
    for (double v : busy[k]) {
      if (v <= 0) continue;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    std::printf("  %-5s %.2fx\n", names[k].c_str(), hi / lo);
  }
  return bench::finish();
}
