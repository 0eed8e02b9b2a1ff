#!/usr/bin/env bash
# Same-box A/B of the end-to-end benchmark between two commits:
#   bash tools/perfbench_ab.sh --base HEAD~1 --workload plan-batch \
#     --seeds "11 12 13 14 15 16 17 18 19 20" --seconds 30
# Run from anywhere inside the repository.  The base commit and HEAD are
# checked out into temporary git worktrees (removed on exit), and each
# builds its own perfbench.  Then every seed runs one pair of
# `perfbench/run.sh` runs, base and HEAD on the same seed, alternating
# which side goes first.  For every end-to-end metric the script prints
# each side's median and quartiles over the pairs and how many pairs
# HEAD won (ties count for neither; "better" comes from BENCHMARK.json).
# Only committed files are measured: uncommitted edits are not.
set -euo pipefail

base=HEAD~1
workload=plan-batch
seeds="1 2 3 4 5 6 7 8 9 10"
seconds=30
while [ $# -gt 0 ]; do
  case "$1" in
    --base) base=$2 ;;
    --workload) workload=$2 ;;
    --seeds) seeds=$2 ;;
    --seconds) seconds=$2 ;;
    *) echo "usage: $0 [--base REV] [--workload W] [--seeds \"N ...\"] [--seconds S]" >&2
       exit 2 ;;
  esac
  shift 2
done

root=$(git rev-parse --show-toplevel)
cd "$root"
base_rev=$(git rev-parse --verify "$base^{commit}")
head_rev=$(git rev-parse --verify "HEAD^{commit}")
tmp=$(mktemp -d)
cleanup() {
  for side in base head; do
    [ -d "$tmp/$side" ] && git worktree remove --force "$tmp/$side" || true
  done
  rm -rf "$tmp"
  git worktree prune
}
trap cleanup EXIT
git worktree add --quiet --detach "$tmp/base" "$base_rev"
git worktree add --quiet --detach "$tmp/head" "$head_rev"
mkdir "$tmp/out"

run() { # side seed mode...
  local side=$1 seed=$2
  shift 2
  (cd "$tmp/$side" &&
    bash perfbench/run.sh --workload "$workload" --seed "$seed" "$@" 2>/dev/null |
    tail -n 1)
}

# Build both sides, and show whether their outputs agree on the first seed.
first=${seeds%% *}
digest_base=$(run base "$first" --seconds 1 --digest-only)
digest_head=$(run head "$first" --seconds 1 --digest-only)
echo "base ${base_rev:0:12}  head ${head_rev:0:12}  workload $workload  seconds $seconds"
if [ "$digest_base" = "$digest_head" ]; then
  echo "digest (seed $first): identical $digest_head"
else
  echo "digest (seed $first): DIFFERENT base $digest_base head $digest_head"
fi

pair=0
for seed in $seeds; do
  if [ $((pair % 2)) -eq 0 ]; then order="base head"; else order="head base"; fi
  for side in $order; do
    run "$side" "$seed" --seconds "$seconds" --trace 0 >"$tmp/out/$side.$pair.json"
  done
  echo "pair $((pair + 1)) (seed $seed, $order) done" >&2
  pair=$((pair + 1))
done

# One "side pair metric value" line per metric of every result.
for f in "$tmp"/out/*.json; do
  name=$(basename "$f" .json)
  grep -o '"[a-z0-9_]*": {"value": [^,}]*' "$f" |
    sed -e 's/^"\([^"]*\)": {"value": /\1 /' -e "s/^/${name%%.*} ${name#*.} /"
done >"$tmp/values"

awk -v bench="$root/BENCHMARK.json" '
  function sort(a, n,   i, j, x) {
    for (i = 2; i <= n; i++) {
      x = a[i]
      for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
      a[j + 1] = x
    }
  }
  # Quantile q of sorted a[1..n], linear between order statistics.
  function quantile(a, n, q,   h, i) {
    h = 1 + (n - 1) * q
    i = int(h)
    return i >= n ? a[n] : a[i] + (h - i) * (a[i + 1] - a[i])
  }
  BEGIN {
    while ((getline line < bench) > 0) {
      if (line ~ /"name":/) { split(line, p, "\""); name = p[4] }
      if (line ~ /"better":/) { split(line, p, "\""); better[name] = p[4] }
    }
  }
  { v[$1, $3, $2] = $4; pairs_seen[$2] = 1; if (!($3 in seen)) { seen[$3] = 1; order[++m] = $3 } }
  END {
    printf "%-20s %-6s %32s %32s %7s %5s\n", "metric", "better",
      "base median [q1, q3]", "head median [q1, q3]", "ratio", "wins"
    for (k = 1; k <= m; k++) {
      metric = order[k]
      nb = nh = pairs = wins = 0
      for (s in pairs_seen) {
        hb = ((("base", metric, s) in v)); hh = ((("head", metric, s) in v))
        if (hb) b[++nb] = v["base", metric, s] + 0
        if (hh) h[++nh] = v["head", metric, s] + 0
        if (hb && hh) {
          pairs++
          x = v["base", metric, s] + 0; y = v["head", metric, s] + 0
          if (better[metric] == "lower" ? y < x : y > x) wins++
        }
      }
      sort(b, nb); sort(h, nh)
      mb = quantile(b, nb, 0.5); mh = quantile(h, nh, 0.5)
      printf "%-20s %-6s %10.4g [%9.4g, %9.4g] %10.4g [%9.4g, %9.4g] %7.3f %2d/%-2d\n",
        metric, better[metric], mb, quantile(b, nb, 0.25), quantile(b, nb, 0.75),
        mh, quantile(h, nh, 0.25), quantile(h, nh, 0.75),
        (mb == 0 ? 0 : mh / mb), wins, pairs
    }
  }' "$tmp/values"
