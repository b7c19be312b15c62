#!/usr/bin/env bash
# Runs the benchmark on a base commit and on the working tree in
# alternating pairs, so that drift of the machine falls on both sides
# alike, and writes one result line per run to a JSONL file per side.
#
#   scripts/bench-pairs.sh <base-ref> [pairs] [workloads]
#   make bench-pairs BASE=<ref> PAIRS=<n> WORKLOADS="<w1> <w2>"
#
# Pair i runs every workload with seed i on both sides; odd pairs run the
# base first, even pairs the working tree. Each run is
# `bash benchmark/run.sh --workload <w> --seed <i> --seconds 12 --trace 0`
# in its own session under `timeout -k 10 <cap>` (CAP seconds, default
# 300, covering the first build of each side). After each run the script
# kills the run's process group and fails if any member survives, so no
# run can leave a process behind. The base is checked out into a
# temporary git worktree, removed on exit.
#
# Output (OUT, default bench-pairs/): base.jsonl and change.jsonl, one
# {"workload","seed","result"} line per run in the format of
# `benchmark -compare`, one log per run, and compare.txt, the verdicts of
# `benchmark -compare base.jsonl change.jsonl`, and ratios.txt, which pairs
# the two sides' runs by workload and seed and gives, for each workload and
# end-to-end metric of BENCHMARK.json, the median change/base ratio of the
# pairs and how many pairs the change won (ties count for neither side).
# The script fails when a run fails or leaves a process behind, not on a
# verdict.
set -euo pipefail

base=${1:?usage: scripts/bench-pairs.sh <base-ref> [pairs] [workloads]}
pairs=${2:-10}
workloads=${3:-"ycsb_b_tcp ycsb_a_repl migrate_loaded crash_recovery"}
cap=${CAP:-300}
root=$(git rev-parse --show-toplevel)
out=$(mkdir -p "${OUT:-$root/bench-pairs}" && cd "${OUT:-$root/bench-pairs}" && pwd)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
wt="$tmp/base"
cleanup() {
	git -C "$root" worktree remove --force "$wt" >/dev/null 2>&1 || true
	rm -rf "$tmp"
	git -C "$root" worktree prune
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$wt" "$base" >/dev/null
: >"$out/base.jsonl"
: >"$out/change.jsonl"

# run <side> <dir> <workload> <seed>: one benchmark run, contained.
run() {
	local side=$1 dir=$2 w=$3 seed=$4
	local log="$out/$side-$w-$seed.log" pid rc=0
	# exec makes the background subshell itself call setsid; not being a
	# group leader, it becomes the leader of a new session and process
	# group whose id is $!, without forking.
	(cd "$dir" && exec setsid timeout -k 10 "$cap" bash benchmark/run.sh \
		--workload "$w" --seed "$seed" --seconds 12 --trace 0) >"$log" 2>&1 &
	pid=$!
	wait "$pid" || rc=$?
	pkill -KILL -g "$pid" 2>/dev/null || true
	for _ in $(seq 50); do
		pgrep -g "$pid" >/dev/null || break
		sleep 0.1
	done
	if pgrep -g "$pid" >/dev/null; then
		echo "bench-pairs: $side $w seed $seed left processes running:" >&2
		pgrep -a -g "$pid" >&2
		exit 1
	fi
	if [ "$rc" -ne 0 ]; then
		echo "bench-pairs: $side $w seed $seed exited $rc (log: $log)" >&2
		exit 1
	fi
	printf '{"workload":"%s","seed":%d,"result":%s}\n' "$w" "$seed" "$(tail -n 1 "$log")" >>"$out/$side.jsonl"
	echo "$side $w seed $seed done" >&2
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
	for w in $workloads; do
		for side in $order; do
			if [ "$side" = base ]; then run base "$wt" "$w" "$i"; else run change "$root" "$w" "$i"; fi
		done
	done
done

# The verdicts are a report, not this script's exit status: -compare
# counts a workload left out of WORKLOADS as missing.
(cd "$root" && ./.bench_build/rocksteady-benchmark -compare "$out/base.jsonl" "$out/change.jsonl") >"$out/compare.txt" || true
cat "$out/compare.txt"

# Paired ratios: drift of the machine falls on both runs of a pair, so the
# per-pair ratio cancels what comparing the two sides' quartiles cannot.
{
	printf 'workload\tmetric\tmedian change/base\tpairs better\n'
	jq -rn --slurpfile base "$out/base.jsonl" --slurpfile change "$out/change.jsonl" \
		--slurpfile spec "$root/BENCHMARK.json" '
	def median: sort | if length % 2 == 1 then .[length / 2 | floor] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	($base | map({key: "\(.workload) \(.seed)", value: .result.metrics}) | from_entries) as $bm
	| [ $change[] as $run
		| $bm["\($run.workload) \($run.seed)"] as $b
		| select($b != null)
		| $spec[0].end_to_end[] as $m
		| $b[$m.name].value as $bv
		| $run.result.metrics[$m.name].value as $cv
		| select($bv != null and $cv != null and $bv != 0)
		| {w: $run.workload, m: $m.name, ratio: ($cv / $bv),
		   better: (if $m.better == "higher" then $cv > $bv else $cv < $bv end)} ]
	| group_by([.w, .m])[]
	| "\(.[0].w)\t\(.[0].m)\t\(map(.ratio) | median * 1000 | round / 1000)\t\(map(select(.better)) | length)/\(length)"'
} >"$out/ratios.txt"
cat "$out/ratios.txt"
