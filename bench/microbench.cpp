// Request-path and planner microbenchmarks, structural perf guard, and the
// cost-model ablation tables.
//
// Two kinds of output, deliberately separated:
//
//   stdout  - DETERMINISTIC numbers only, diffed byte-for-byte against
//             bench/golden/microbench.stdout (CI fails on any drift):
//             * the structural guard: counted heap allocations per request
//               (this binary links the counting operator new/delete),
//               segment and coalescing counts, extent-store fragmentation;
//             * the ablation tables: MHA's virtual-time bandwidth on IOR and
//               LANL App2 with one design choice removed per row.  They run
//               at fixed sizes (--scale does not apply) on the exec pool by
//               index and print after the join, so --threads changes no byte.
//   stderr + BENCH_micro.json (--json) - TIMED numbers: ns/op and ops/s for
//             each kernel over a fixed iteration count scaled by --scale.
//             Machine-dependent; tracked as a trajectory, never diffed.
//
// Kernels: DRT lookup (sequential hit / random hit / miss / sparse table),
// full translate+dispatch through MpiFile -> Redirector -> HybridPfs,
// page-cache read hits, extent-store write/read fast paths, steady-state
// trace replay, and the planner: cost-model request_cost and aggregate,
// RSSD sweep, k-means grouping, StripeLayout::map_extent and
// MhaPipeline::analyze.
#include "bench_common.hpp"

#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "cache/page_cache.hpp"
#include "common/alloc_counter.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/grouping.hpp"
#include "core/pipeline.hpp"
#include "core/redirector.hpp"
#include "core/rssd.hpp"
#include "guard/guard.hpp"
#include "io/mpi_file.hpp"
#include "pfs/extent_store.hpp"
#include "pfs/layout.hpp"
#include "qos/job.hpp"
#include "qos/policy.hpp"
#include "workloads/apps.hpp"
#include "workloads/ior.hpp"

using namespace mha;
using namespace mha::common::literals;

namespace {

/// Times `op` over `iters` iterations and records one JSON cell.  A kernel
/// that handles many items per call (a batch, a request set, a trace)
/// passes ops_per_iter > 1 so ns/op stays per item; byte-moving kernels
/// pass bytes_per_iter so the cell reports real MiB/s instead of 0.
/// Returns ns/op for speedup gates.
template <typename Fn>
double timed(std::size_t sequence, const char* label, std::size_t iters, Fn&& op,
             std::size_t ops_per_iter = 1, common::ByteCount bytes_per_iter = 0) {
  const double start = bench::wall_now();
  for (std::size_t i = 0; i < iters; ++i) op(i);
  const double elapsed = bench::wall_now() - start;
  const double ops = static_cast<double>(iters) * static_cast<double>(ops_per_iter);
  bench::CellRecord cell;
  cell.case_label = label;
  cell.variant = "timed";
  cell.wall_seconds = elapsed;
  cell.ops_per_s = elapsed > 0.0 ? ops / elapsed : 0.0;
  cell.ns_per_op = ops > 0.0 ? elapsed * 1e9 / ops : 0.0;
  cell.mib_per_s = elapsed > 0.0 && bytes_per_iter > 0
                       ? static_cast<double>(bytes_per_iter) * static_cast<double>(iters) /
                             elapsed / static_cast<double>(common::kMiB)
                       : 0.0;
  bench::report().add(sequence, cell);
  if (cell.mib_per_s > 0.0) {
    std::fprintf(stderr, "%-32s %12.1f ops/s  %10.2f ns/op  %10.1f MiB/s\n", label,
                 cell.ops_per_s, cell.ns_per_op, cell.mib_per_s);
  } else {
    std::fprintf(stderr, "%-32s %12.1f ops/s  %10.2f ns/op\n", label, cell.ops_per_s,
                 cell.ns_per_op);
  }
  return cell.ns_per_op;
}

core::Drt dense_table(common::ByteCount file_bytes, common::ByteCount entry) {
  core::Drt drt("micro.orig");
  for (common::Offset pos = 0; pos < file_bytes; pos += entry) {
    (void)drt.insert(core::DrtEntry{pos, entry, "micro.region", pos});
  }
  return drt;
}

std::vector<core::ModelRequest> sample_requests(std::size_t n) {
  std::vector<core::ModelRequest> out;
  common::Rng rng(11);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(core::ModelRequest{
        i % 3 ? common::OpType::kRead : common::OpType::kWrite,
        rng.next_below(1_GiB), (1 + rng.next_below(64)) * 4_KiB,
        static_cast<std::uint32_t>(1 + rng.next_below(32))});
  }
  return out;
}

/// MHA with one design choice removed per row; row 0 is the full scheme.
struct Ablation {
  const char* label;
  void (*apply)(core::MhaOptions&);
};
const Ablation kAblations[] = {
    {"full MHA (concurrency model, adaptive bounds, 4K step)", [](core::MhaOptions&) {}},
    {"- concurrency term (HARL-era model)",
     [](core::MhaOptions& o) { o.concurrency_aware = false; }},
    {"- adaptive bounds (HARL average-size bound)",
     [](core::MhaOptions& o) { o.rssd.adaptive_bounds = false; }},
    {"- 4K step (32K step)", [](core::MhaOptions& o) { o.rssd.step = 32_KiB; }},
    // One region disables the reordering benefit.
    {"- grouping (single region, k=1)", [](core::MhaOptions& o) { o.grouping.max_groups = 1; }},
};

/// Prints one ablation table per workload.  Every (workload, row) cell runs
/// on the exec pool and lands by index; printing happens after the join.
void print_ablations() {
  workloads::IorMixedSizesConfig ior;
  ior.num_procs = 32;
  ior.request_sizes = {128_KiB, 256_KiB};
  ior.file_size = 128_MiB;
  ior.op = common::OpType::kWrite;
  ior.file_name = "ablate.ior";
  workloads::LanlConfig lanl;
  lanl.num_procs = 8;
  lanl.loops = 256;
  const std::pair<const char*, trace::Trace> traces[] = {
      {"IOR 128+256 KiB writes, 32 procs", workloads::ior_mixed_sizes(ior)},
      {"LANL App2 (heterogeneous sizes), 8 procs", workloads::lanl_app2(lanl)}};
  constexpr std::size_t kRows = std::size(kAblations);
  const auto bandwidth =
      exec::default_pool().parallel_map(std::size(traces) * kRows, [&](std::size_t index) {
        core::MhaOptions options;
        kAblations[index % kRows].apply(options);
        auto scheme = layouts::make_mha(options);
        return bench::run_bandwidth(*scheme, bench::paper_cluster(), traces[index / kRows].second);
      });
  for (std::size_t t = 0; t < std::size(traces); ++t) {
    std::printf("\n=== Ablations (MHA on %s) ===\n", traces[t].first);
    const double full = bandwidth[t * kRows];
    std::printf("%-44s %8.1f MiB/s\n", kAblations[0].label, full);
    for (std::size_t r = 1; r < kRows; ++r) {
      const double value = bandwidth[t * kRows + r];
      std::printf("%-44s %8.1f MiB/s (%+.1f%%)\n", kAblations[r].label, value,
                  (value / full - 1) * 100);
    }
  }
}

/// A world for end-to-end request kernels: PFS + identity redirector + file.
/// Members are constructed in place (MpiFile keeps pointers to pfs/mpi, so
/// the world must not relocate them after open).
struct RequestWorld {
  pfs::HybridPfs pfs;
  io::MpiSim mpi;
  std::unique_ptr<core::Redirector> redirector;
  std::unique_ptr<io::MpiFile> file;

  RequestWorld(common::ByteCount file_bytes, common::ByteCount entry, int ranks = 1)
      : pfs(bench::paper_cluster()), mpi(ranks) {
    (void)pfs.create_file("micro.f");
    auto r = core::Redirector::create(
        pfs, core::Redirector::identity_table("micro.f", file_bytes, entry));
    redirector = std::make_unique<core::Redirector>(std::move(r).take());
    auto f = io::MpiFile::open(pfs, mpi, "micro.f");
    file = std::make_unique<io::MpiFile>(std::move(*f));
    file->set_interceptor(redirector.get());
  }
};

}  // namespace

int main(int argc, char** argv) {
  // --assert-batch-speedup: exit non-zero unless the batched request path
  // beats the serial per-request baseline by >= 3x at batch size 32 (the
  // CI perf-smoke gate).  Filtered out before bench::init, which rejects
  // flags it does not know.
  bool assert_batch_speedup = false;
  // --assert-cache-speedup: exit non-zero unless a page-cache read hit is
  // >= 50x cheaper than the uncached 4 KiB translate+dispatch baseline.
  bool assert_cache_speedup = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--assert-batch-speedup") == 0) {
      assert_batch_speedup = true;
      continue;
    }
    if (i > 0 && std::strcmp(argv[i], "--assert-cache-speedup") == 0) {
      assert_cache_speedup = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  bench::init("micro", static_cast<int>(args.size()), args.data());
  constexpr common::ByteCount kFile = 16_MiB;
  constexpr common::ByteCount kEntry = 64_KiB;
  constexpr common::ByteCount kRequest = 4_KiB;

  // ------------------------------------------------------------ structural
  std::printf("=== microbench structural guard (deterministic) ===\n");
  std::printf("allocation hook linked: %s\n",
              common::allocation_hook_linked() ? "yes" : "NO");

  {
    // Counted allocations per steady-state request, single-segment shape:
    // 64 KiB requests against 1 MiB identity entries (the fig14 shape).
    RequestWorld world(4_MiB, 1_MiB);
    std::vector<std::uint8_t> buffer(64_KiB, 0x5A);
    for (common::Offset pos = 0; pos < 4_MiB; pos += 64_KiB) {  // warm-up
      (void)world.file->write_at(0, pos, buffer.data(), buffer.size());
      (void)world.file->read_at(0, pos, buffer.data(), buffer.size());
    }
    common::AllocationScope scope;
    std::size_t requests = 0;
    for (common::Offset pos = 0; pos < 4_MiB; pos += 64_KiB) {
      (void)world.file->write_at(0, pos, buffer.data(), buffer.size());
      (void)world.file->read_at(0, pos, buffer.data(), buffer.size());
      requests += 2;
    }
    std::printf("steady-state allocs/request (64KiB req, 1MiB entries): %.2f over %zu requests\n",
                static_cast<double>(scope.allocations()) / static_cast<double>(requests),
                requests);
  }
  {
    // Multi-segment shape: 8 KiB entries split each 64 KiB request 8 ways.
    RequestWorld world(1_MiB, 8_KiB);
    std::vector<std::uint8_t> buffer(64_KiB, 0xC3);
    for (common::Offset pos = 0; pos < 1_MiB; pos += 64_KiB) {  // warm-up
      (void)world.file->write_at(0, pos, buffer.data(), buffer.size());
    }
    common::AllocationScope scope;
    std::size_t requests = 0;
    for (common::Offset pos = 0; pos < 1_MiB; pos += 64_KiB) {
      (void)world.file->write_at(0, pos, buffer.data(), buffer.size());
      (void)world.file->read_at(0, pos, buffer.data(), buffer.size());
      requests += 2;
    }
    std::printf("steady-state allocs/request (64KiB req, 8KiB entries):  %.2f over %zu requests\n",
                static_cast<double>(scope.allocations()) / static_cast<double>(requests),
                requests);
  }
  {
    // Coalescing: adjacent same-region segments must merge before dispatch.
    pfs::HybridPfs pfs(bench::paper_cluster());
    (void)pfs.create_file("c.orig");
    (void)pfs.create_file("c.region");
    core::Drt drt("c.orig");
    for (common::Offset pos = 0; pos < 1_MiB; pos += 8_KiB) {
      (void)drt.insert(core::DrtEntry{pos, 8_KiB, "c.region", pos});
    }
    auto redirector = core::Redirector::create(pfs, std::move(drt));
    const auto raw = redirector->drt().lookup(0, 1_MiB);
    io::SegmentList merged;
    redirector->translate(0, 1_MiB, merged);
    std::printf("coalescing (1MiB span, 8KiB entries): %zu DRT segments -> %zu dispatched\n",
                raw.size(), merged.size());
  }
  {
    // Extent-store append pattern must stay a single extent (no fragmentation).
    pfs::ExtentStore store;
    std::vector<std::uint8_t> block(64_KiB, 1);
    for (common::Offset pos = 0; pos < 8_MiB; pos += 64_KiB) {
      store.write(pos, block.data(), block.size());
    }
    std::printf("extent store after 8MiB sequential append: %zu extent(s), %llu bytes\n",
                store.extent_count(),
                static_cast<unsigned long long>(store.stored_bytes()));
  }
  {
    // Batched store write: 32 adjacent 4 KiB slices land as ONE extent with
    // the checksum refresh merged across the whole span (not 32 per-slice
    // rechecksums) — the coalescing the batched request path rides.
    pfs::ExtentStore store;
    std::vector<std::uint8_t> payload(32 * 4_KiB, 3);
    std::vector<pfs::ExtentStore::IoSlice> slices;
    for (std::size_t i = 0; i < 32; ++i) {
      slices.push_back(pfs::ExtentStore::IoSlice{
          static_cast<common::Offset>(i) * 4_KiB, payload.data() + i * 4_KiB, 4_KiB});
    }
    store.write_batch(slices);
    std::printf("extent store after batched 32x4KiB adjacent write: %zu extent(s), %llu bytes\n",
                store.extent_count(),
                static_cast<unsigned long long>(store.stored_bytes()));
  }
  {
    // DRT split shape for a representative straddling request.
    const core::Drt drt = dense_table(kFile, kEntry);
    const auto segs = drt.lookup(kEntry - 1_KiB, 2_KiB);  // straddles two entries
    std::printf("DRT straddle split (2KiB over a 64KiB boundary): %zu segments\n",
                segs.size());
  }
  {
    // Multi-tenant request path: job stamping + per-job server rows + a
    // fair-share scheduler's ledgers must all stay allocation-free once the
    // flat per-job structures are warm.
    qos::JobTable jobs;
    (void)jobs.add("a", 1.0, qos::PriorityClass::kInteractive);
    (void)jobs.add("b", 2.0);
    auto scheduler = qos::make_qos_scheduler(qos::QosKind::kJobFair, jobs);
    RequestWorld world(4_MiB, 1_MiB);
    world.pfs.set_scheduler(scheduler.get());
    scheduler->reserve_metrics(512, world.pfs.num_servers());
    std::vector<std::uint8_t> buffer(64_KiB, 0x7E);
    for (common::Offset pos = 0; pos < 4_MiB; pos += 64_KiB) {  // warm-up
      const auto job = static_cast<common::JobId>((pos / 64_KiB) % 2);
      (void)world.file->write_at(0, pos, buffer.data(), buffer.size(), job);
      (void)world.file->read_at(0, pos, buffer.data(), buffer.size(), job);
    }
    common::AllocationScope scope;
    std::size_t requests = 0;
    for (common::Offset pos = 0; pos < 4_MiB; pos += 64_KiB) {
      const auto job = static_cast<common::JobId>((pos / 64_KiB) % 2);
      (void)world.file->write_at(0, pos, buffer.data(), buffer.size(), job);
      (void)world.file->read_at(0, pos, buffer.data(), buffer.size(), job);
      requests += 2;
    }
    std::printf("steady-state allocs/request (job-fair, 2 jobs stamped):  %.2f over %zu requests\n",
                static_cast<double>(scope.allocations()) / static_cast<double>(requests),
                requests);
    world.pfs.set_scheduler(nullptr);
  }
  {
    // Guarded request path: an OverloadGuard attached and an enforced
    // end-to-end deadline route every sub-request through the admission
    // gate, breaker bookkeeping, and cancellation receipts — all of which
    // must stay allocation-free once the flat per-server state is warm.
    guard::GuardOptions options;
    options.shed_backlog = {std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::infinity()};
    RequestWorld world(4_MiB, 1_MiB);
    guard::OverloadGuard overload_guard(world.pfs.num_servers(), options);
    world.pfs.set_guard(&overload_guard);
    const common::Seconds deadline = 1e9;  // enforced, never missed
    std::vector<std::uint8_t> buffer(64_KiB, 0x99);
    for (common::Offset pos = 0; pos < 4_MiB; pos += 64_KiB) {  // warm-up
      (void)world.file->write_at(0, pos, buffer.data(), buffer.size(), common::kDefaultJob,
                                 deadline);
      (void)world.file->read_at(0, pos, buffer.data(), buffer.size(), common::kDefaultJob,
                                deadline);
    }
    common::AllocationScope scope;
    std::size_t requests = 0;
    for (common::Offset pos = 0; pos < 4_MiB; pos += 64_KiB) {
      (void)world.file->write_at(0, pos, buffer.data(), buffer.size(), common::kDefaultJob,
                                 deadline);
      (void)world.file->read_at(0, pos, buffer.data(), buffer.size(), common::kDefaultJob,
                                deadline);
      requests += 2;
    }
    std::printf("steady-state allocs/request (guarded, deadline enforced): %.2f over %zu requests\n",
                static_cast<double>(scope.allocations()) / static_cast<double>(requests),
                requests);
    world.pfs.set_guard(nullptr);
  }
  {
    // Batched request path: after the first batch grows the arenas, the
    // whole vectorized pipeline — shared-cursor translate, cross-request
    // coalescing, one dispatch per server — must be allocation-free.
    RequestWorld world(4_MiB, 1_MiB, /*ranks=*/32);
    std::vector<std::uint8_t> buffer(32 * 4_KiB, 0x42);
    std::vector<io::BatchOp> ops(32);
    io::BatchOutcomeVec outcomes;
    const auto run_batches = [&](std::size_t* requests) {
      for (common::Offset base = 0; base < 4_MiB; base += 32 * 4_KiB) {
        for (std::size_t w = 0; w < ops.size(); ++w) {
          ops[w].rank = static_cast<int>(w);
          ops[w].offset = base + static_cast<common::Offset>(w) * 4_KiB;
          ops[w].size = 4_KiB;
          ops[w].read_out = buffer.data() + w * 4_KiB;
          ops[w].write_data = buffer.data() + w * 4_KiB;
        }
        world.file->write_at_batch(ops, outcomes);
        world.file->read_at_batch(ops, outcomes);
        if (requests != nullptr) *requests += 2 * ops.size();
      }
    };
    run_batches(nullptr);  // warm-up
    common::AllocationScope scope;
    std::size_t requests = 0;
    run_batches(&requests);
    std::printf("steady-state allocs/request (batched 32x4KiB, fast path): %.2f over %zu requests\n",
                static_cast<double>(scope.allocations()) / static_cast<double>(requests),
                requests);
  }
  {
    // Page-cache hit path: once every page is resident, a read is a table
    // probe plus a client-local memcpy — it must not allocate.
    RequestWorld world(4_MiB, 1_MiB);
    cache::CacheConfig config;
    config.num_pages = 64;  // 4 MiB pool: the whole file stays resident
    cache::CachedFile cached(*world.file, world.mpi, world.pfs, config);
    std::vector<std::uint8_t> buffer(64_KiB, 0);
    for (common::Offset pos = 0; pos < 4_MiB; pos += 64_KiB) {  // warm the pool
      (void)cached.read_at(0, pos, buffer.data(), 64_KiB);
    }
    common::AllocationScope scope;
    std::size_t requests = 0;
    for (common::Offset pos = 0; pos < 4_MiB; pos += 4_KiB) {
      (void)cached.read_at(0, pos, buffer.data(), 4_KiB);
      ++requests;
    }
    std::printf("steady-state allocs/request (cached 4KiB read hits):      %.2f over %zu requests\n",
                static_cast<double>(scope.allocations()) / static_cast<double>(requests),
                requests);
  }
  {
    // Write-back coalescing shape: 256 adjacent 4 KiB writes dirty 16 pages
    // and the sync flush must dispatch them as ONE offset-sorted run.
    RequestWorld world(4_MiB, 1_MiB);
    cache::CacheConfig config;
    config.num_pages = 64;
    cache::CachedFile cached(*world.file, world.mpi, world.pfs, config);
    std::vector<std::uint8_t> block(4_KiB, 0x6B);
    for (common::Offset pos = 0; pos < 1_MiB; pos += 4_KiB) {
      (void)cached.write_at(0, pos, block.data(), block.size());
    }
    (void)cached.flush_all(0.0);
    const cache::CacheMetrics& m = cached.metrics();
    std::printf("write-back coalescing (256x4KiB adjacent): absorbed=%llu coalesced=%llu "
                "-> %llu run(s), %llu page(s), %llu bytes\n",
                static_cast<unsigned long long>(m.absorbed_writes),
                static_cast<unsigned long long>(m.coalesced_writes),
                static_cast<unsigned long long>(m.flush_ops),
                static_cast<unsigned long long>(m.flush_pages),
                static_cast<unsigned long long>(m.flush_bytes));
  }

  print_ablations();

  // ----------------------------------------------------------------- timed
  std::fprintf(stderr, "=== microbench timed kernels (machine-dependent) ===\n");
  const auto iters = [](std::size_t n) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(
                                        static_cast<double>(n) * bench::options().scale));
  };
  {
    const core::Drt drt = dense_table(kFile, kEntry);
    core::Drt::SegmentVec scratch;
    const std::size_t n = iters(200'000);
    timed(0, "drt_lookup_sequential", n, [&](std::size_t i) {
      drt.lookup((static_cast<common::Offset>(i) * kRequest) % kFile, kRequest, scratch);
    });
    std::vector<common::Offset> offsets(8192);
    common::Rng rng(42);
    for (auto& o : offsets) o = rng.next_below(kFile - kRequest);
    timed(1, "drt_lookup_hit_random", n, [&](std::size_t i) {
      drt.lookup(offsets[i % offsets.size()], kRequest, scratch);
    });
    // The batched-translate hint: one cursor shared across an ascending
    // sweep gallops from the previous hit instead of re-searching.
    core::Drt::LookupCursor cursor;
    timed(8, "drt_lookup_cursor_sequential", n, [&](std::size_t i) {
      const common::Offset pos = (static_cast<common::Offset>(i) * kRequest) % kFile;
      if (pos == 0) cursor = core::Drt::LookupCursor{};
      drt.lookup(pos, kRequest, scratch, cursor);
    });
  }
  {
    // Miss kernel: sparse table (every other 64 KiB covered), lookups in gaps.
    core::Drt drt("micro.sparse");
    for (common::Offset pos = 0; pos < kFile; pos += 2 * kEntry) {
      (void)drt.insert(core::DrtEntry{pos, kEntry, "micro.region", pos / 2});
    }
    core::Drt::SegmentVec scratch;
    timed(2, "drt_lookup_miss", iters(200'000), [&](std::size_t i) {
      const common::Offset gap =
          kEntry + (static_cast<common::Offset>(i) * 2 * kEntry) % kFile;
      drt.lookup(gap + 4_KiB, kRequest, scratch);
    });
  }
  {
    RequestWorld world(4_MiB, 1_MiB);
    std::vector<std::uint8_t> buffer(64_KiB, 0x5A);
    for (common::Offset pos = 0; pos < 4_MiB; pos += 64_KiB) {
      (void)world.file->write_at(0, pos, buffer.data(), buffer.size());
    }
    timed(3, "translate_dispatch_write", iters(20'000), [&](std::size_t i) {
      (void)world.file->write_at(0, (i * 64_KiB) % 4_MiB, buffer.data(), buffer.size());
    }, 1, 64_KiB);
    timed(4, "translate_dispatch_read", iters(20'000), [&](std::size_t i) {
      (void)world.file->read_at(0, (i * 64_KiB) % 4_MiB, buffer.data(), buffer.size());
    }, 1, 64_KiB);
  }
  double serial_write_ns = 0.0;
  double serial_read_ns = 0.0;
  double batch32_write_ns = 0.0;
  double batch32_read_ns = 0.0;
  {
    // Batched vs serial end-to-end path, small-request regime: adjacent
    // 4 KiB requests, where per-request fixed costs (translate, dispatch,
    // checksum refresh of a whole 64 KiB chunk) dominate and coalescing
    // pays.  ns/op is per request in both shapes.
    RequestWorld world(4_MiB, 1_MiB, /*ranks=*/128);
    std::vector<std::uint8_t> buffer(128 * 4_KiB, 0x5A);
    for (common::Offset pos = 0; pos < 4_MiB; pos += 4_KiB) {  // warm file
      (void)world.file->write_at(0, pos, buffer.data(), 4_KiB);
    }
    serial_write_ns =
        timed(9, "translate_dispatch_write_4k", iters(20'000), [&](std::size_t i) {
          (void)world.file->write_at(0, (i * 4_KiB) % 4_MiB, buffer.data(), 4_KiB);
        }, 1, 4_KiB);
    serial_read_ns =
        timed(10, "translate_dispatch_read_4k", iters(20'000), [&](std::size_t i) {
          (void)world.file->read_at(0, (i * 4_KiB) % 4_MiB, buffer.data(), 4_KiB);
        }, 1, 4_KiB);

    const std::size_t batch_sizes[] = {8, 32, 128};
    std::vector<io::BatchOp> ops;
    io::BatchOutcomeVec outcomes;
    std::size_t sequence = 11;
    for (const std::size_t n : batch_sizes) {
      ops.resize(n);
      const common::ByteCount span = static_cast<common::ByteCount>(n) * 4_KiB;
      const auto run_batch = [&](std::size_t i) {
        const common::Offset base = (static_cast<common::Offset>(i) * span) % 4_MiB;
        for (std::size_t w = 0; w < n; ++w) {
          ops[w].rank = static_cast<int>(w);
          ops[w].offset = base + static_cast<common::Offset>(w) * 4_KiB;
          ops[w].size = 4_KiB;
          ops[w].read_out = buffer.data() + w * 4_KiB;
          ops[w].write_data = buffer.data() + w * 4_KiB;
        }
      };
      run_batch(0);
      world.file->write_at_batch(ops, outcomes);  // warm the arenas
      world.file->read_at_batch(ops, outcomes);
      char label[64];
      std::snprintf(label, sizeof(label), "translate_dispatch_write_batch%zu", n);
      const double write_ns = timed(sequence++, label, iters(40'000 / n),
                                    [&](std::size_t i) {
                                      run_batch(i);
                                      world.file->write_at_batch(ops, outcomes);
                                    },
                                    n, span);
      std::snprintf(label, sizeof(label), "translate_dispatch_read_batch%zu", n);
      const double read_ns = timed(sequence++, label, iters(40'000 / n),
                                   [&](std::size_t i) {
                                     run_batch(i);
                                     world.file->read_at_batch(ops, outcomes);
                                   },
                                   n, span);
      if (n == 32) {
        batch32_write_ns = write_ns;
        batch32_read_ns = read_ns;
      }
    }
  }
  double cached_hit_ns = 0.0;
  {
    // Cache hit kernel: the comparison target for translate_dispatch_read_4k
    // — a resident 4 KiB read skips translate and dispatch entirely.
    RequestWorld world(4_MiB, 1_MiB);
    cache::CacheConfig config;
    config.num_pages = 64;
    cache::CachedFile cached(*world.file, world.mpi, world.pfs, config);
    std::vector<std::uint8_t> buffer(64_KiB, 0);
    for (common::Offset pos = 0; pos < 4_MiB; pos += 64_KiB) {  // warm the pool
      (void)cached.read_at(0, pos, buffer.data(), 64_KiB);
    }
    cached_hit_ns = timed(17, "cached_read_hit", iters(200'000), [&](std::size_t i) {
      (void)cached.read_at(0, (i * 4_KiB) % 4_MiB, buffer.data(), 4_KiB);
    }, 1, 4_KiB);
  }
  {
    pfs::ExtentStore store;
    std::vector<std::uint8_t> block(64_KiB, 2);
    for (common::Offset pos = 0; pos < 8_MiB; pos += 64_KiB) {
      store.write(pos, block.data(), block.size());
    }
    timed(5, "extent_store_write_inplace", iters(50'000), [&](std::size_t i) {
      store.write((i * 64_KiB) % 8_MiB, block.data(), block.size());
    }, 1, 64_KiB);
    timed(6, "extent_store_read_fast", iters(50'000), [&](std::size_t i) {
      store.read((i * 64_KiB) % 8_MiB, block.data(), block.size());
    }, 1, 64_KiB);
  }
  {
    // Steady-state replay: the whole measurement harness end to end.
    workloads::IorMixedSizesConfig config;
    config.num_procs = 8;
    config.request_sizes = {4_KiB, 64_KiB};
    config.file_size = 16_MiB;
    config.file_name = "micro.ior";
    config.seed = 7;
    const trace::Trace trace = workloads::ior_mixed_sizes(config);
    pfs::PfsOptions options;
    options.store_data = false;
    pfs::HybridPfs pfs(bench::paper_cluster(), options);
    (void)pfs.create_file(trace.file_name);
    pfs.mds().extend(*pfs.open(trace.file_name), trace::extent_end(trace.records));
    layouts::Deployment plain;
    plain.file_name = trace.file_name;
    const auto warm = workloads::replay(pfs, plain, trace);
    const std::size_t requests = warm.is_ok() ? warm->requests : 0;
    const common::ByteCount bytes = warm.is_ok() ? warm->bytes_total() : 0;
    timed(7, "replay_steady_state", iters(8), [&](std::size_t) {
      pfs.reset_stats();
      pfs.reset_clocks();
      (void)workloads::replay(pfs, plain, trace);
    }, requests, bytes);
  }

  {
    // Planner kernels: Eq. 2 per request and over a request set, the RSSD
    // <h,s> sweep per request size, k-means grouping, stripe mapping and
    // the whole analysis pipeline.  Set-wide kernels count ns per item.
    const core::CostModel model(core::CostParams::from_cluster(bench::paper_cluster()));
    const auto requests = sample_requests(1024);
    timed(18, "cost_model_request_cost", iters(2'000'000), [&](std::size_t i) {
      bench::keep(model.request_cost(requests[i % requests.size()], 12_KiB, 40_KiB));
    });
    std::size_t sequence = 19;
    char label[64];
    // {size, iterations} pairs: each cell runs a few tenths of a second.
    using Shape = std::pair<std::size_t, std::size_t>;
    for (const auto& [n, count] : {Shape{1024, 400}, Shape{16384, 4}}) {
      const auto set = sample_requests(n);
      std::snprintf(label, sizeof(label), "cost_model_aggregate_%zu", n);
      timed(sequence++, label, iters(count),
            [&](std::size_t) { bench::keep(core::CostModel::aggregate(set)); }, n);
    }
    for (const auto& [size, count] : {Shape{64_KiB, 256}, Shape{256_KiB, 32}, Shape{1_MiB, 16}}) {
      std::vector<core::ModelRequest> sweep;
      for (std::size_t i = 0; i < 64; ++i) {
        sweep.push_back(core::ModelRequest{common::OpType::kRead, i * 256_KiB, size, 16});
      }
      std::snprintf(label, sizeof(label), "rssd_sweep_%llukib",
                    static_cast<unsigned long long>(size / 1_KiB));
      timed(sequence++, label, iters(count),
            [&](std::size_t) { bench::keep(core::determine_stripes(model, sweep)); });
    }
    for (const auto& [n, count] : {Shape{1024, 512}, Shape{32768, 16}}) {
      std::vector<core::FeaturePoint> points;
      common::Rng rng(3);
      for (std::size_t i = 0; i < n; ++i) {
        points.push_back(core::FeaturePoint{static_cast<double>(rng.next_below(1 << 20)),
                                            static_cast<double>(1 + rng.next_below(64))});
      }
      std::snprintf(label, sizeof(label), "kmeans_grouping_%zu", n);
      timed(sequence++, label, iters(count),
            [&](std::size_t) { bench::keep(core::group_requests_auto(points)); }, n);
    }
    // Sparse table (4 KiB entries every 8 KiB), random 64 KiB spans that
    // return a fresh segment vector: the allocating lookup overload.
    for (const std::size_t entries : {1024, 65536}) {
      core::Drt drt("f");
      const std::string regions[] = {"r0", "r1", "r2", "r3"};
      for (std::size_t i = 0; i < entries; ++i) {
        (void)drt.insert(core::DrtEntry{i * 8_KiB, 4_KiB, regions[i % 4], i * 4_KiB});
      }
      common::Rng rng(5);
      std::snprintf(label, sizeof(label), "drt_lookup_sparse_%zu", entries);
      timed(sequence++, label, iters(400'000), [&](std::size_t) {
        bench::keep(drt.lookup(rng.next_below(entries * 8_KiB), 64_KiB));
      });
    }
    const auto layout = pfs::StripeLayout::stripe_pair(6, 2, 12_KiB, 40_KiB).take();
    common::Rng rng(7);
    timed(sequence++, "layout_map_extent", iters(500'000), [&](std::size_t) {
      bench::keep(layout.map_extent(rng.next_below(1_GiB), 256_KiB));
    });
    for (const auto& [file, count] : {Shape{32_MiB, 16}, Shape{128_MiB, 4}}) {
      workloads::IorMixedSizesConfig config;
      config.num_procs = 16;
      config.request_sizes = {128_KiB, 256_KiB};
      config.file_size = file;
      config.file_name = "bm.ior";
      const trace::Trace trace = workloads::ior_mixed_sizes(config);
      std::snprintf(label, sizeof(label), "pipeline_analyze_%llumib",
                    static_cast<unsigned long long>(file / 1_MiB));
      timed(sequence++, label, iters(count), [&](std::size_t) {
        bench::keep(core::MhaPipeline::analyze(bench::paper_cluster(), trace));
      }, trace.records.size());
    }
  }

  if (assert_cache_speedup) {
    const double hit_speedup =
        cached_hit_ns > 0.0 ? serial_read_ns / cached_hit_ns : 0.0;
    std::fprintf(stderr,
                 "cached hit speedup vs uncached 4k read: %.1fx (gate: >= 50x)\n",
                 hit_speedup);
    if (hit_speedup < 50.0) {
      std::fprintf(stderr, "FAIL: cached read hit under 50x speedup gate\n");
      return bench::finish(1);
    }
  }
  if (assert_batch_speedup) {
    const double write_speedup =
        batch32_write_ns > 0.0 ? serial_write_ns / batch32_write_ns : 0.0;
    const double read_speedup =
        batch32_read_ns > 0.0 ? serial_read_ns / batch32_read_ns : 0.0;
    std::fprintf(stderr,
                 "batch32 speedup vs serial 4k: write %.2fx, read %.2fx (gate: >= 3x)\n",
                 write_speedup, read_speedup);
    if (write_speedup < 3.0 || read_speedup < 3.0) {
      std::fprintf(stderr, "FAIL: batched request path under 3x speedup gate\n");
      return bench::finish(1);
    }
  }
  return bench::finish();
}
