#!/usr/bin/env bash
# perf_ab.sh — alternating perf runs of a base commit and this checkout.
#
# Runs the perf benchmark (perf/run.sh) built from two sources: BASE,
# checked out in a temporary clone, and this checkout's working tree. The
# two run in N pairs with identical flags, BASE first in odd pairs and the
# working tree first in even ones, so drift in the host's speed falls on
# both sides (perf/README.md, "Comparing two commits"). It ends with
# `perf -compare` over the pairs and the host they ran on: CPU model,
# nproc and Go version.
#
#	scripts/perf_ab.sh [-n pairs] [-o dir] BASE [perf flags...]
#	make perf-ab BASE=<ref> [PAIRS=10] [PERF_FLAGS='--seed 42 --trace 0']
#
#	-n pairs  pairs to run (default 10, the fewest on which
#	          perf -compare gives a timing verdict)
#	-o dir    where the runs go: dir/base/NN and dir/head/NN each hold a
#	          results.json and the run's output (default: a new temporary
#	          directory, kept and printed at the end)
#
# The perf flags after BASE go to every run, for example
# `--workload mix4-paper-sampled --seed 7 --trace 0`. perf/run.sh rebuilds
# the working tree before each of its runs, so leave the sources alone
# until the script ends. The clone, not a `git worktree`, leaves nothing
# behind in this repository's .git when a run is interrupted; it is
# deleted on exit, its build cache with it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
usage="usage: scripts/perf_ab.sh [-n pairs] [-o dir] BASE [perf flags...]"

pairs=10
out=
while getopts "n:o:" opt; do
	case "$opt" in
	n) pairs="$OPTARG" ;;
	o) out="$OPTARG" ;;
	*) echo "$usage" >&2; exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [ $# -lt 1 ] || ! [ "$pairs" -ge 1 ] 2>/dev/null; then
	echo "$usage" >&2
	exit 2
fi
base_ref=$1
shift
base_sha=$(git -C "$root" rev-parse --verify "$base_ref^{commit}")
out=${out:-$(mktemp -d "${TMPDIR:-/tmp}/perf-ab.XXXXXX")}
mkdir -p "$out"
out=$(cd "$out" && pwd)

src=$(mktemp -d "${TMPDIR:-/tmp}/perf-ab-base.XXXXXX")
trap 'rm -rf "$src"' EXIT
trap 'exit 130' INT TERM
git clone -q --no-checkout "$root" "$src"
git -C "$src" checkout -q --detach "$base_sha"

echo "perf-ab: base $base_ref ($base_sha), head = working tree of $root"
echo "perf-ab: $pairs pairs, perf flags: ${*:-(defaults)}; runs in $out"

# run_side SIDE PAIR: one perf run of one side, its output kept beside its
# results.json.
run_side() {
	local side=$1 pair=$2
	shift 2
	local dir="$out/$side/$pair" tree="$root"
	[ "$side" = base ] && tree="$src"
	mkdir -p "$dir"
	echo "perf-ab: pair $pair, $side"
	if ! bash "$tree/perf/run.sh" "$@" --out "$dir" >"$dir/run.log" 2>&1; then
		echo "perf-ab: pair $pair, $side failed; its output:" >&2
		cat "$dir/run.log" >&2
		exit 1
	fi
}

for ((i = 1; i <= pairs; i++)); do
	pair=$(printf '%02d' "$i")
	order="base head"
	[ $((i % 2)) -eq 0 ] && order="head base"
	for side in $order; do
		run_side "$side" "$pair" "$@"
	done
done

bash "$root/perf/run.sh" -compare "$out/base" "$out/head"
echo "host: $(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo), nproc $(nproc), $(go version)"
echo "perf-ab: runs kept in $out"
