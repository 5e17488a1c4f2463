#!/usr/bin/env bash
# Regenerates the golden stdout files in bench/golden/ from the current
# build.  Run this after an *intentional* structural change (a new
# microbench section, a changed coalescing shape, a new allocs/request
# line), review the diff, and commit the golden together with the change
# that caused it.  CI diffs bench stdout byte-for-byte against these files,
# so an unreviewed regen would launder a real regression.
#
#   BUILD_DIR - where the bench binaries live (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-${repo_root}/build}"
golden_dir="${repo_root}/bench/golden"
mkdir -p "${golden_dir}"

cmake --build "${build_dir}" -j --target microbench

# Stdout only (structural guard + ablation tables): timed kernels print to
# stderr and are never golden-diffed.  --threads=1 matches CI; stdout must not depend on it.
"${build_dir}/bench/microbench" --threads=1 \
  > "${golden_dir}/microbench.stdout" 2> /dev/null

echo "regenerated goldens in ${golden_dir}:"
git -C "${repo_root}" diff --stat -- bench/golden || true
