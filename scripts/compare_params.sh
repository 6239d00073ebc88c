#!/usr/bin/env bash
# Check that the working tree deploys the same parameters as revision REV,
# whatever either writes to disk.
#
# usage: scripts/compare_params.sh REV
#
# On REV, unpacked with `git archive` into a temporary directory, and on the
# working tree, runs the CLI on demos/config.json for sisa_scls_replay,
# sisa_balanced and sisa_gated: `train`, then `unlearn class_1`, then
# `unlearn class_3`; and for baseline_full: `train`, then `unlearn class_1`.
# It also runs sisa_scls_replay with the default CNN on a tiny CIFAR-format
# batch (10 classes x 6 random records, K=2, L=2): `train`, then
# `unlearn automobile` (its shard restarts at slice 0), then `unlearn frog`
# (a rollback). After each step, each tree loads its own run directory with
# its own code and prints a blake2b of every deployed constituent's tensors
# and head, of the router and of the baseline; then it runs `eval` and
# prints a blake2b of the report's confusion matrix, so that one moved
# prediction shows. Exits nonzero on any difference.
set -euo pipefail

rev=${1:?usage: scripts/compare_params.sh REV}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

# one line per deployed model: <step> <shard id, gating or baseline> <head> <blake2b>
digest='
import hashlib, json, sys
from pathlib import Path
from sisa_unlearn.checkpoint import load_checkpoint

step, run_dir = sys.argv[1], Path(sys.argv[2])
manifest = json.loads((run_dir / "manifest.json").read_text())
models = [(str(e["shard_id"]), e["checkpoints"][-1])
          for e in manifest.get("constituents", [])]
for name in ("gating", "baseline"):
    if manifest.get(name):
        models.append((name, manifest[name]))
for name, rel in models:
    params = load_checkpoint(run_dir / rel).params
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(params.tensors):
        h.update(key.encode())
        h.update(params.tensors[key].tobytes())
    head = ",".join(map(str, params.output_classes))
    print(step, name, head, h.hexdigest())
'

# one line per eval: <step> confusion <blake2b of the eval report's matrix>
confusion='
import hashlib, json, sys
from pathlib import Path

step, run_dir = sys.argv[1], Path(sys.argv[2])
matrix = json.loads((run_dir / "reports" / "eval.json").read_text())["confusion_matrix"]
print(step, "confusion",
      hashlib.blake2b(json.dumps(matrix).encode(), digest_size=16).hexdigest())
'

# a CIFAR-format batch, and a config that trains the default CNN on it
mkdir "$tmp/cifar"
python3 -c '
import sys
import numpy as np
records = np.random.default_rng(0).integers(0, 256, (60, 3073), dtype=np.uint8)
records[:, 0] = np.repeat(np.arange(10), 6)
open(sys.argv[1], "wb").write(records.tobytes())
' "$tmp/cifar/data_batch_1.bin"
cat > "$tmp/cifar.json" <<JSON
{"dataset": {"kind": "cifar10", "dir": "$tmp/cifar"},
 "split": {"train": 0.7, "val": 0.1, "test": 0.2},
 "K": 2, "L": 2, "strategy": "sisa_scls_replay", "replay_ratio": 0.3,
 "train": {"max_epochs_per_slice": 1, "patience": null, "batch_size": 8},
 "seed": 7, "out": "runs/cifar"}
JSON

# <tag> <config> <strategy> <classes removed in turn>
cases=(
  "sisa_scls_replay $root/demos/config.json sisa_scls_replay class_1 class_3"
  "sisa_balanced $root/demos/config.json sisa_balanced class_1 class_3"
  "sisa_gated $root/demos/config.json sisa_gated class_1 class_3"
  "baseline_full $root/demos/config.json baseline_full class_1"
  "cifar_cnn $tmp/cifar.json sisa_scls_replay automobile frog"
)

for tree in base work; do
  src=$root
  [ "$tree" = base ] && src=$tmp/base
  for case in "${cases[@]}"; do
    read -r tag config strategy classes <<< "$case"
    run="$tmp/$tree.$tag"
    (
      export PYTHONPATH=$src/src
      report() {
        python3 -c "$digest" "$1" "$run"
        python3 -m sisa_unlearn.cli --quiet eval "$run"
        python3 -c "$confusion" "$1" "$run"
      }
      python3 -m sisa_unlearn.cli --quiet train --config "$config" \
        --strategy "$strategy" --out "$run"
      report "$tag/train"
      for class in $classes; do
        python3 -m sisa_unlearn.cli --quiet unlearn "$run" --class "$class"
        report "$tag/unlearn_$class"
      done
    ) >> "$tmp/$tree.out"
  done
done

lines=$(wc -l < "$tmp/work.out")
if [ "$lines" -eq 0 ]; then
  echo "no parameter digests printed" >&2
  exit 1
elif diff "$tmp/base.out" "$tmp/work.out"; then
  echo "$lines parameter and confusion digests identical to $rev"
else
  echo "deployed parameters or predictions differ from $rev" >&2
  exit 1
fi
