#!/usr/bin/env bash
# Same-machine A/B of the simulator throughput benchmark. Builds the root
# package's test binary at the merge base of <base> and HEAD and from the
# working tree, runs each BenchmarkSimulatorThroughput case on both sides
# back to back, for several rounds that alternate which side goes first (so
# the machine's speed swings hit both sides alike), and compares them with
# scripts/benchab, which exits non-zero on a regression. Raw outputs and the
# report land in bench_ab/.
#
# Usage: scripts/bench_ab.sh <base>      e.g. scripts/bench_ab.sh origin/main
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <base>" >&2
  exit 2
fi
cd "$(git rev-parse --show-toplevel)"
rounds=5
bench='^BenchmarkSimulatorThroughput$'
procs=${GOMAXPROCS:-$(nproc)}
suffix=-$procs # go test names each case <case>-<GOMAXPROCS>, or <case> at 1
((procs > 1)) || suffix=
base=$(git merge-base "$1" HEAD)
out=bench_ab
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
rm -rf "$out"
mkdir -p "$out" "$tmp/base"

echo "bench_ab: base $base, head $(git rev-parse HEAD) (working tree), $rounds rounds" >&2
git archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go test -c -o "$tmp/base.test" .)
go test -c -o "$tmp/head.test" .
go build -o "$tmp/benchab" ./scripts/benchab
# The head's cases; one the base lacks prints nothing there and is skipped.
cases=$("$tmp/head.test" -test.run '^$' -test.bench "$bench" -test.benchtime 1x -test.cpu "$procs" |
  sed -n "s|^BenchmarkSimulatorThroughput/\([^[:space:]]*\)$suffix[[:space:]].*|\1|p")

run() { # run <side> <dir> <case>
  (cd "$2" && "$tmp/$1.test" -test.run '^$' -test.bench "$bench/^$3\$" -test.cpu "$procs" -test.timeout 10m) >>"$out/$1.txt"
}
for ((i = 1; i <= rounds; i++)); do
  echo "bench_ab: round $i/$rounds" >&2
  for c in $cases; do
    if ((i % 2)); then
      run base "$tmp/base" "$c"
      run head . "$c"
    else
      run head . "$c"
      run base "$tmp/base" "$c"
    fi
  done
done
"$tmp/benchab" "$out/base.txt" "$out/head.txt" | tee "$out/report.txt"
