#!/usr/bin/env bash
# Runs the full bench suite and collects one BENCH_<name>.json per binary
# (per-cell wall time, replay virtual time and bandwidth).  Knobs:
#
#   BUILD_DIR  - bench binaries live in $BUILD_DIR/bench   (default: build)
#   OUT_DIR    - where the JSON reports land               (default: .)
#   THREADS    - forwarded as --threads=N                  (default: auto)
#   SCALE      - forwarded as --scale=F, 0 < F <= 1        (default: 1)
#
# Stdout of every bench is deterministic and independent of THREADS; only
# the JSON wall times vary run to run.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-${repo_root}/build}"
out_dir="${OUT_DIR:-.}"
mkdir -p "${out_dir}"

flags=()
[[ -n "${THREADS:-}" ]] && flags+=("--threads=${THREADS}")
[[ -n "${SCALE:-}" ]] && flags+=("--scale=${SCALE}")

benches=(
  fig07_ior_mixed_sizes
  fig08_server_load
  fig09_ior_mixed_procs
  fig10_server_ratios
  fig11_hpio
  fig12_btio_lanl
  fig13_lu_cholesky
  fig14_overhead
  ext_online_adaptation
  ext_scalability
  ext_carl
  ext_collective_io
  ext_scheduler
  ext_fault
  ext_multitenant
  ext_overload
  ext_cache
  ext_repair
)

for bench in "${benches[@]}"; do
  echo "==> ${bench}"
  "${build_dir}/bench/${bench}" "${flags[@]}" \
    --json="${out_dir}/BENCH_${bench}.json"
done

# Microbench: structural guard and ablation tables on stdout (diffed
# against bench/golden/microbench.stdout), timed kernels in BENCH_micro.json.
echo "==> microbench"
"${build_dir}/bench/microbench" "${flags[@]}" \
  --json="${out_dir}/BENCH_micro.json" \
  > "${out_dir}/microbench.stdout"
diff -u "${repo_root}/bench/golden/microbench.stdout" "${out_dir}/microbench.stdout"

echo "reports written to ${out_dir}/BENCH_*.json"
