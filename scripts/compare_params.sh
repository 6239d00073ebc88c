#!/usr/bin/env bash
# Check that the working tree deploys the same parameters as revision REV,
# whatever either writes to disk.
#
# usage: scripts/compare_params.sh REV
#
# On REV, unpacked with `git archive` into a temporary directory, and on the
# working tree, runs the CLI on demos/config.json for sisa_scls_replay,
# sisa_balanced and sisa_gated: `train`, then `unlearn class_1`, then
# `unlearn class_3`. After each step, each tree loads its own run directory
# with its own code and prints a blake2b of every deployed constituent's
# tensors and head, and of the router. Exits nonzero on any difference.
set -euo pipefail

rev=${1:?usage: scripts/compare_params.sh REV}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

# one line per deployed model: <step> <shard id, or gating> <head> <blake2b>
digest='
import hashlib, json, sys
from pathlib import Path
from sisa_unlearn.checkpoint import load_checkpoint

step, run_dir = sys.argv[1], Path(sys.argv[2])
manifest = json.loads((run_dir / "manifest.json").read_text())
models = [(str(e["shard_id"]), e["checkpoints"][-1]) for e in manifest["constituents"]]
if manifest.get("gating"):
    models.append(("gating", manifest["gating"]))
for name, rel in models:
    params = load_checkpoint(run_dir / rel).params
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(params.tensors):
        h.update(key.encode())
        h.update(params.tensors[key].tobytes())
    head = ",".join(map(str, params.output_classes))
    print(step, name, head, h.hexdigest())
'

for tree in base work; do
  src=$root
  [ "$tree" = base ] && src=$tmp/base
  for strategy in sisa_scls_replay sisa_balanced sisa_gated; do
    run="$tmp/$tree.$strategy"
    (
      export PYTHONPATH=$src/src
      python3 -m sisa_unlearn.cli --quiet train --config "$root/demos/config.json" \
        --strategy "$strategy" --out "$run"
      python3 -c "$digest" "$strategy/train" "$run"
      for class in class_1 class_3; do
        python3 -m sisa_unlearn.cli --quiet unlearn "$run" --class "$class"
        python3 -c "$digest" "$strategy/unlearn_$class" "$run"
      done
    ) >> "$tmp/$tree.out"
  done
done

lines=$(wc -l < "$tmp/work.out")
if [ "$lines" -eq 0 ]; then
  echo "no parameter digests printed" >&2
  exit 1
elif diff "$tmp/base.out" "$tmp/work.out"; then
  echo "$lines parameter digests identical to $rev"
else
  echo "deployed parameters differ from $rev" >&2
  exit 1
fi
