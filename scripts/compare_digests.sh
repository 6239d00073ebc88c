#!/usr/bin/env bash
# Check that the working tree reproduces the fixed-seed results of revision REV.
#
# usage: scripts/compare_digests.sh REV
#
# Runs the gated_serve, cnn_cli and mlp_rollback benchmark workloads once
# (seed 1, no timing window, no tracing) on REV, unpacked with `git archive`
# into a temporary directory, and on the working tree. Then it compares every
# `digest` line (trained parameters and unlearning outcomes) and the
# accuracy_before/accuracy_after lines. Exits nonzero on any difference.
# Each tree's disk_bytes line (base: REV, work: the working tree) is printed
# after the result, not compared, so a change in what the store keeps shows
# next to the digest check.
set -euo pipefail

rev=${1:?usage: scripts/compare_digests.sh REV}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

status=0
for workload in gated_serve cnn_cli mlp_rollback; do
  for tree in base work; do
    dir=$root
    [ "$tree" = base ] && dir=$tmp/base
    (cd "$dir" && python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds 0 --trace 0) > "$tmp/$tree.$workload.out"
    grep -E "^digest |^$workload: accuracy_" "$tmp/$tree.$workload.out" \
      > "$tmp/$tree.$workload" || true
  done
  digests=$(grep -c '^digest ' "$tmp/work.$workload" || true)
  if [ "$digests" -eq 0 ]; then
    echo "$workload: no digest lines printed" >&2
    status=1
  elif diff "$tmp/base.$workload" "$tmp/work.$workload"; then
    echo "$workload: $digests digest lines and both accuracies identical to $rev"
  else
    echo "$workload: differs from $rev" >&2
    status=1
  fi
  for tree in base work; do
    echo "  $tree: $(grep "^$workload: disk_bytes " "$tmp/$tree.$workload.out" \
      || echo "no disk_bytes line")"
  done
done
exit $status
