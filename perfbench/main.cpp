// Repository benchmark binary.
//
//   mha_perfbench --workload <plan|serve|writeback|degraded> --seed <n>
//                 --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Runs repetitions of one workload for `--seconds` of host time and prints
// every metric by name and unit, then one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}.  `--trace 0` reports
// the end-to-end metrics (host wall-clock measures of the simulator);
// `--trace 1` reports the per-layer metrics of traced repetitions and must
// run the mha_perfbench_traced build (the one linking the allocation hook).
//
// Output checks, any of which makes the run incorrect and the exit code 1:
//   - every replay of stored data runs with verify_data (a wrong byte or a
//     kCorruption status fails it);
//   - a first, unmeasured repetition runs with a 1-thread exec pool and
//     re-reads the final file contents where the workload defines them;
//   - every later repetition (configured pool size, traced or not) must
//     reproduce its simulated results exactly;
//   - traced repetitions plan stage by stage and must rebuild exactly the
//     plan MhaPipeline::analyze returns.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_counter.hpp"
#include "exec/thread_pool.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Clock;
using perfbench::Repetition;
using perfbench::SpanRecorder;

/// exec pool size for the measured repetitions (planning fans out on it).
/// Fixed so runs compare; clamped to the hardware so it never oversubscribes.
constexpr std::size_t kPoolThreads = 4;
constexpr std::size_t kMinRepetitions = 8;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  perfbench::Workload workload = perfbench::Workload::kPlan;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload_name = value;
      have_workload = perfbench::parse_workload(value, args.workload);
      if (!have_workload) return false;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args.trace = value[0] == '1';
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The highest of p99, p95, p90, p75 with at least ten samples beyond it in
/// `guaranteed` samples (nearest rank), else the median.  The choice depends
/// only on the sample count every run is guaranteed to reach, never on how
/// many repetitions a fast run fits in, so it is the same on every run.
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
};

Tail tail(std::vector<double> values, std::size_t guaranteed) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  double p = 50.0;
  for (double candidate : {99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(guaranteed) * (1.0 - candidate / 100.0) >= 10.0) {
      p = candidate;
      break;
    }
  }
  const double n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p / 100.0 * n)));
  return Tail{values[rank - 1], p};
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Metrics in print order, with units.
class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    rows_.push_back(Row{name, value, unit});
  }

  /// Human-readable lines, then the JSON result as the last stdout line.
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    for (const Row& r : rows_) std::printf("%-28s %16.6f %s\n", r.name.c_str(), r.value, r.unit);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  rows_[i].name.c_str(), rows_[i].value, rows_[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
};

/// One traced repetition's per-layer values, keyed by metric name.
std::map<std::string, double> layer_values(const Repetition& rep, const SpanRecorder& spans) {
  const perfbench::LayerCounts& c = rep.counts;
  const perfbench::SimDigest& sim = rep.sim;
  const auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const double rssd_s = spans.total("core.rssd");
  std::map<std::string, double> v;
  v["workloads.generate_s"] = spans.total("workloads.generate");
  v["layouts.populate_s"] = spans.total("layouts.populate");
  v["trace.concurrency_s"] = spans.total("trace.concurrency");
  v["core.grouping_s"] = spans.total("core.grouping");
  v["core.groups"] = count(c.groups);
  v["core.grouping_iterations"] = count(c.grouping_iterations);
  v["core.reorganize_s"] = spans.total("core.reorganize");
  v["core.drt_entries"] = count(c.drt_entries);
  v["core.rssd_s"] = rssd_s;
  v["core.rssd_pairs"] = count(c.rssd_pairs);
  v["core.rssd_ns_per_pair"] = per(rssd_s * 1e9, count(c.rssd_pairs));
  v["core.place_s"] = spans.total("core.place");
  v["core.place_mib"] = count(c.placed_bytes) / kMiB;
  v["core.replicas"] = count(c.replicas);
  v["kv.drt_save_s"] = spans.total("kv.drt_save");
  v["core.translate_calls"] = count(c.translate_calls);
  v["core.translate_s"] = spans.total("core.translate");
  v["core.segments_per_request"] = per(count(c.translate_segments), count(c.translate_calls));
  v["pfs.replay_self_s"] = spans.self("workloads.replay") + spans.self("replay.iteration");
  v["pfs.subops"] = count(sim.subops);
  v["pfs.subops_per_request"] = per(count(sim.subops), count(sim.requests));
  v["pfs.allocs_per_request"] = per(count(c.replay_allocations), count(sim.requests));
  v["cache.hit_ratio"] = c.cache.hit_ratio();
  v["cache.absorbed_writes"] = count(c.cache.absorbed_writes);
  v["cache.flush_ops"] = count(c.cache.flush_ops);
  v["cache.flush_mib"] = count(c.cache.flush_bytes) / kMiB;
  v["cache.evict_dirty"] = count(c.cache.evict_dirty);
  v["cache.prefetch_pages"] = count(c.cache.prefetch_pages);
  v["sched.requests"] = count(c.sched_requests);
  v["sched.reorders"] = count(c.sched_reorders);
  v["sched.deferrals"] = count(c.sched_deferrals);
  v["guard.admitted"] = count(c.guard.admitted);
  v["guard.shed"] = count(c.guard.shed_total());
  v["guard.breaker_opens"] = count(c.guard.breaker_opens);
  v["guard.breaker_reroutes"] = count(c.guard.breaker_reroutes);
  v["guard.retry_tokens_denied"] = count(c.guard.retry_tokens_denied);
  v["guard.deadline_misses"] = count(c.guard.deadline_misses);
  v["guard.siblings_cancelled"] = count(c.guard.siblings_cancelled);
  v["fault.retries"] = count(c.fault.retries);
  v["fault.degraded_reads"] = count(c.fault.degraded_reads);
  v["fault.redo_replayed"] = count(c.fault.redo_replayed);
  v["fault.budget_exhausted"] = count(c.fault.budget_exhausted);
  v["repair.rebuild_plan_s"] = spans.total("repair.rebuild_plan");
  v["repair.rebuild_step_s"] = spans.total("repair.rebuild_step");
  v["repair.rebuild_mib"] = count(c.rebuild.bytes_copied) / kMiB;
  v["repair.failover_reads"] = count(c.failover.failover_reads);
  v["repair.unavailable"] = count(c.failover.unavailable);
  v["sim.makespan_s"] = sim.makespan_s;
  v["sim.mib_per_s"] = per(count(sim.bytes) / kMiB, sim.makespan_s);
  v["sim.latency_p99_ms"] = sim.latency_p99_s * 1e3;
  v["sim.hserver_busy_s"] = sim.hserver_busy_s;
  v["sim.sserver_busy_s"] = sim.sserver_busy_s;
  v["sim.queue_wait_s"] = sim.queue_wait_s;
  v["trace.span_coverage"] = spans.child_coverage("workloads.replay");
  return v;
}

const char* layer_unit(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("mib_per_s")) return "MiB/s";
  if (ends_with("_s")) return "s";
  if (ends_with("_ms")) return "ms";
  if (ends_with("_us")) return "us";
  if (ends_with("_ns_per_pair")) return "ns";
  if (ends_with("_mib")) return "MiB";
  if (ends_with("_ratio") || ends_with("_per_request") || ends_with("coverage")) {
    return "ratio";
  }
  return "count";
}

int fail(const std::string& why, std::uint64_t attempted, std::uint64_t failed) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  Report().print(false, attempted, failed);
  return 1;
}

int run(const Args& args, const std::string& workdir) {
  const std::size_t pool = std::min<std::size_t>(
      kPoolThreads, std::max<unsigned>(1, std::thread::hardware_concurrency()));
  std::printf("# %s\n", perfbench::describe(args.workload, args.seed).c_str());
  std::printf("# seed %llu, exec pool 1 (check repetition) then %zu, %s run of %.0f s\n",
              static_cast<unsigned long long>(args.seed), pool,
              args.trace ? "traced" : "untraced", args.seconds);
  if (args.trace && !mha::common::allocation_hook_linked()) {
    return fail("--trace 1 needs the mha_perfbench_traced build", 0, 0);
  }

  // Check repetition: 1-thread pool, unmeasured, content re-read.
  mha::exec::set_default_threads(1);
  auto check = perfbench::run_repetition(args.workload, args.seed, workdir, nullptr, true);
  if (!check.is_ok()) return fail("check repetition: " + check.status().to_string(), 0, 0);
  std::uint64_t attempted = check->replayed_requests;
  std::uint64_t failed = check->sim.failed;
  std::printf("# check repetition: %llu requests, %llu failed or shed, final content %s\n",
              static_cast<unsigned long long>(check->sim.requests),
              static_cast<unsigned long long>(check->sim.failed),
              check->content_checked ? "re-read and matched" : "not re-read");
  mha::exec::set_default_threads(pool);

  const auto measure = [&](SpanRecorder* spans) -> mha::common::Result<Repetition> {
    auto rep = perfbench::run_repetition(args.workload, args.seed, workdir, spans, false);
    if (!rep.is_ok()) return rep.status();
    attempted += rep->replayed_requests;
    failed += rep->sim.failed;
    if (!(rep->sim == check->sim)) {
      return mha::common::Status::failed_precondition(
          std::string("simulated results differ from the 1-thread check repetition (") +
          (spans != nullptr ? "traced" : "untraced") + ")");
    }
    return rep;
  };

  Report report;
  const Clock::time_point start = Clock::now();
  if (!args.trace) {
    std::vector<Repetition> reps;
    while (reps.size() < kMinRepetitions || perfbench::seconds_since(start) < args.seconds) {
      auto rep = measure(nullptr);
      if (!rep.is_ok()) return fail(rep.status().to_string(), attempted, failed);
      reps.push_back(std::move(rep).take());
    }
    std::vector<double> setup, plan, ops, mib, iterations;
    for (const Repetition& r : reps) {
      setup.push_back(r.setup_s);
      plan.push_back(r.plan_s);
      ops.push_back(static_cast<double>(r.replayed_requests) / r.replay_s);
      mib.push_back(static_cast<double>(r.replayed_bytes) / kMiB / r.replay_s);
      iterations.insert(iterations.end(), r.iteration_s.begin(), r.iteration_s.end());
    }
    const Tail iter_tail = tail(iterations, reps.front().iteration_s.size() * kMinRepetitions);
    std::printf("# %zu repetitions, %zu iteration samples, iter_p99_ms is the p%g\n",
                reps.size(), iterations.size(), iter_tail.percentile);
    report.add("setup_s", median(setup), "s");
    report.add("plan_s", median(plan), "s");
    report.add("replay_ops_per_s", median(ops), "req/s");
    report.add("replay_mib_per_s", median(mib), "MiB/s");
    report.add("iter_p50_ms", median(iterations) * 1e3, "ms");
    report.add("iter_p99_ms", iter_tail.value * 1e3, "ms");
    report.add("ops_ok_ratio",
               static_cast<double>(attempted - failed) / static_cast<double>(attempted),
               "ratio");
    report.add("peak_rss_mib", peak_rss_mib(), "MiB");
  } else {
    SpanRecorder kernel_spans;
    auto kernels = perfbench::time_content_kernels(args.seed, kernel_spans);
    if (!kernels.is_ok()) return fail(kernels.status().to_string(), attempted, failed);
    std::map<std::string, std::vector<double>> values;
    // Host seconds per replayed request, traced and untraced.
    std::vector<double> traced_replay, untraced_replay;
    std::size_t spans_recorded = 0;
    for (std::size_t i = 0;
         2 * i < kMinRepetitions || perfbench::seconds_since(start) < args.seconds; ++i) {
      // Alternate which side runs first so warm-up favours neither.
      for (int side = 0; side < 2; ++side) {
        const bool traced = (side == 0) == (i % 2 == 0);
        SpanRecorder spans;
        auto rep = measure(traced ? &spans : nullptr);
        if (!rep.is_ok()) return fail(rep.status().to_string(), attempted, failed);
        const double per_request =
            rep->replay_s / static_cast<double>(rep->replayed_requests);
        if (!traced) {
          untraced_replay.push_back(per_request);
          continue;
        }
        traced_replay.push_back(per_request);
        spans_recorded = spans.spans().size();
        for (const auto& [name, value] : layer_values(*rep, spans)) values[name].push_back(value);
      }
    }
    std::printf("# %zu traced + %zu untraced repetitions, %zu spans per traced repetition\n",
                traced_replay.size(), untraced_replay.size(), spans_recorded);
    for (const auto& [name, samples] : values) {
      report.add(name, median(samples), layer_unit(name));
    }
    report.add("common.crc32_mib_per_s", kernels->crc32_mib_per_s, "MiB/s");
    report.add("pfs.write_4k_us", kernels->write_4k_us, "us");
    report.add("pfs.verified_read_4k_us", kernels->verified_read_4k_us, "us");
    report.add("trace.overhead_ratio", median(traced_replay) / median(untraced_replay),
               "ratio");
  }
  report.print(true, attempted, failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <plan|serve|writeback|degraded> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>]\n",
                 argv[0]);
    return 2;
  }
  const std::string workdir = args.workdir + "/" + args.workload_name + "-" +
                              std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", workdir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  const int code = run(args, workdir);
  std::filesystem::remove_all(workdir, ec);
  return code;
}
