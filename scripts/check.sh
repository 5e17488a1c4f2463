#!/usr/bin/env bash
# Tier-1 gate under sanitizers: configure + build + ctest with the `asan`
# preset (-fsanitize=address,undefined).  Run from anywhere; exits non-zero
# on the first failing step so it slots into CI as-is.
#
# LeakSanitizer is disabled via the preset's ASAN_OPTIONS: it needs ptrace,
# which sandboxed containers commonly deny, and the suite's processes are
# short-lived anyway — ASan/UBSan keep memory errors and UB covered.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="$(nproc 2>/dev/null || echo 4)"

cmake --preset asan
cmake --build --preset asan -j "${jobs}"
ctest --preset asan -j "${jobs}"

# Structural perf guard: the microbench's stdout (counted allocs/request,
# coalescing and fragmentation counts, ablation tables) is deterministic —
# including under sanitizers — so any drift from the committed golden is a
# regression.
# --scale only shrinks the timed kernels (stderr/JSON), never stdout.
cmake --build --preset asan -j "${jobs}" --target microbench
"${repo_root}/build-asan/bench/microbench" --threads=1 --scale=0.05 \
  | diff -u "${repo_root}/bench/golden/microbench.stdout" -

# Page-cache gate: re-run the cache suites by name (hit/eviction semantics,
# boundary-exact coalescing, cached-replay equivalence, cache-vs-migration
# consistency), then the coalescing bench whose exit code enforces the
# >=10x dispatched-op / >=3x bandwidth contract on the LANL pattern.
ctest --preset asan -j "${jobs}" -R 'Cache|Cached|Prefetch|ReadAhead|Flush|Clock'
cmake --build --preset asan -j "${jobs}" --target ext_cache
"${repo_root}/build-asan/bench/ext_cache" --threads=1 --scale=0.05 > /dev/null

# Integrity gate: re-run the checksum/scrub/crash-recovery suites by name so
# a filter typo in the binaries can never silently drop them, then run the
# seeded corruption + scrub sweep (the tail section of ext_fault) under the
# sanitizers.  The sweep exits non-zero unless every planted fault is
# detected and every DRT-reachable chunk repairs.
ctest --preset asan -j "${jobs}" \
  -R 'Checksums|SilentFault|Scrubber|Integrity|CrashMatrix|FaultMetricsTable|ReplayVerification|RecoveryIdempotence'
cmake --build --preset asan -j "${jobs}" --target ext_fault
"${repo_root}/build-asan/bench/ext_fault" --threads=1 --scale=0.05 > /dev/null

# Repair gate: re-run the permanent-loss suites by name (membership epochs,
# replica column, failover/mirror semantics, rebuild crash matrix), then the
# kill-grid bench whose exit code enforces zero data loss for replicated
# regions, rebuild-to-zero-failover and the bounded victim p99.
ctest --preset asan -j "${jobs}" -R 'Repair|Membership|DrtReplica|Failover|Rebuild|Unreplicated|KillWipes'
cmake --build --preset asan -j "${jobs}" --target ext_repair
"${repo_root}/build-asan/bench/ext_repair" --threads=1 --scale=0.05 > /dev/null

# ThreadSanitizer pass over the concurrency surface: the exec pool's own
# tests plus the sched/fault/guard suites that exercise replay on the pool
# (the guard suite's chaos cells fan out on it), the batched-vs-serial
# equivalence suite (its thread-invariance test fans combos out on an
# 8-thread pool), and the repair suite (ext_repair's kill cells pump the
# rebuilder from replay barriers on pool threads).  The rest of the suite
# is single-threaded and already covered above, so only the affected
# binaries are built to keep single-core runtimes sane.
cmake --preset tsan
cmake --build --preset tsan -j "${jobs}" --target mha_exec_tests mha_system_tests mha_guard_tests mha_batch_tests mha_repair_tests
ctest --preset tsan -j "${jobs}" -R 'Exec|Sched|Scheduler|Fault|Retry|TryCancel|Degraded|Migration|Journal|RecoveryIdempotence|CircuitBreaker|OverloadGuard|ChaosCell|StatsTable|Batch|Repair|Membership|Rebuild|Failover'
