#!/usr/bin/env bash
# Alternating pairs of benchmark runs of two revisions (choosing-metrics §8).
#
#   tools/bench_pairs.sh REV_A REV_B WORKLOAD[,WORKLOAD..] [PAIRS=10] [SECONDS=10] [SEED0]
#
# REV_A is the parent, REV_B the change. Each is a git revision, checked
# out under a temp dir with `git archive` (the repository and its
# worktree list are left alone), or a directory holding a checkout, used
# where it is — the way to measure a change before committing it. Each
# side builds into its own CARGO_TARGET_DIR and is run by its own
# `benchmark/run.sh --workload WORKLOAD --trace 0`, so each revision is
# measured with the benchmark code it was committed with. Several
# workloads share the two builds and are measured one after the other.
# Pair i runs both sides on seed SEED0 + i (SEED0 defaults to a fresh
# random one and is printed), A first on even pairs and B first on odd.
#
# Prints, per workload and for each of the four end-to-end metrics, one
# row per pair, B's wins (ties count for neither), both medians and A's
# interquartile range, and whether B's gain is resolved: B wins at least
# nine tenths of the pairs and the medians are further apart than A's IQR.
set -euo pipefail

if [ $# -lt 3 ]; then
  sed -n '2,20p' "${BASH_SOURCE[0]}" | cut -c3- >&2
  exit 2
fi
rev_a=$1 rev_b=$2 workloads=${3//,/ } pairs=${4:-10} seconds=${5:-10} seed0=${6:-$((RANDOM * 3 + 1000))}
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

checkout() { # SIDE REV -> the directory that side runs from
  if [ -d "$2" ]; then
    (cd "$2" && pwd)
  else
    mkdir "$tmp/$1"
    git -C "$root" archive "$2" | tar -x -C "$tmp/$1"
    echo "$tmp/$1"
  fi
}
dir_a="$(checkout a "$rev_a")"
dir_b="$(checkout b "$rev_b")"

run() { # SIDE DIR WORKLOAD SEED -> the run's result line
  (cd "$2" && CARGO_TARGET_DIR="$tmp/target_$1" benchmark/run.sh \
    --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 2>"$tmp/stderr_$1" | tail -n 1) ||
    { cat "$tmp/stderr_$1" >&2; exit 1; }
}

summarize() { # RESULTS: one {"pair", "side", "result"} object per line
  python3 - "$1" <<'EOF'
import json, statistics, sys

rows = [json.loads(line) for line in open(sys.argv[1])]
sides = {s: [r["result"] for r in rows if r["side"] == s] for s in "ab"}
for s, results in sides.items():
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"{s.upper()}: {failed} of {attempted} jobs failed, "
          f"all correct: {all(r['correct'] for r in results)}")
for metric, spec in sides["a"][0]["metrics"].items():
    a = [r["metrics"][metric]["value"] for r in sides["a"]]
    b = [r["metrics"][metric]["value"] for r in sides["b"]]
    print(f"\n{metric} ({spec['unit']}, lower is better)")
    print(f"  {'pair':>4} {'A':>10} {'B':>10} {'B/A':>7}")
    for i, (x, y) in enumerate(zip(a, b)):
        print(f"  {i:>4} {x:>10.4f} {y:>10.4f} {y / x if x else float('nan'):>7.3f}")
    wins = sum(y < x for x, y in zip(a, b))
    losses = sum(y > x for x, y in zip(a, b))
    med_a, med_b = statistics.median(a), statistics.median(b)
    q = statistics.quantiles(a, n=4) if len(a) > 1 else [med_a] * 3
    iqr = q[2] - q[0]
    resolved = wins >= 0.9 * len(a) and med_a - med_b > iqr
    print(f"  B wins {wins}/{len(a)}, loses {losses}; median A {med_a:.4f}, B {med_b:.4f} "
          f"({(med_b / med_a - 1) * 100 if med_a else float('nan'):+.1f}%); A's IQR {iqr:.4f}; "
          f"gain {'resolved' if resolved else 'not resolved'}")
EOF
}

echo "A = $rev_a, B = $rev_b, $pairs pairs of ${seconds}s per workload, seeds $seed0.." >&2
for workload in $workloads; do
  : >"$tmp/results"
  for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then order="a b"; else order="b a"; fi
    for side in $order; do
      dir_var="dir_$side"
      line="$(run "$side" "${!dir_var}" "$workload" "$seed")"
      echo "$workload pair $i seed $seed side $side: $line" >&2
      printf '{"pair": %d, "side": "%s", "result": %s}\n' "$i" "$side" "$line" >>"$tmp/results"
    done
  done
  echo
  echo "== $workload: A = $rev_a, B = $rev_b, seeds $seed0..$((seed0 + pairs - 1)), ${seconds}s runs"
  summarize "$tmp/results"
done
