#!/usr/bin/env bash
# Runs the full verification ladder: default build + tests (including the
# `torture` crash sweeps), then the ASan/UBSan tier, then the TSan tier
# (which is what the concurrent torture and fence-protocol race tests are
# really for). Usage:
#
#   tools/verify.sh            # all three tiers
#   tools/verify.sh default    # one tier (default | release | asan | tsan)
set -euo pipefail

cd "$(dirname "$0")/.."

tiers=("$@")
if [ ${#tiers[@]} -eq 0 ]; then
  tiers=(default asan tsan)
fi

for tier in "${tiers[@]}"; do
  echo "==== tier: ${tier} ===="
  cmake --preset "${tier}"
  cmake --build --preset "${tier}" -j
  ctest --preset "${tier}" -j "$(nproc)"
  # The crash sweeps are the robustness gate; run them by label so a
  # filtered/cached ctest state can never silently skip them.
  ctest --preset "${tier}" -L torture
done

echo "==== all tiers green ===="
