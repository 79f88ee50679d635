#!/usr/bin/env bash
# The paired protocol a performance claim is judged by (BENCHMARK.json, and
# bench/README.md "Measured steadiness"): run the repository benchmark on a
# parent revision and on the working tree in alternating order, PAIRS times,
# and print for every end-to-end metric each side's median and quartiles and
# how many pairs the working tree won. Both sides are built and run by their
# own bench/run.sh, exactly as the driver does. It also prints the median and
# quartiles of the per-pair change/parent ratio, which host load that drifts
# between pairs moves far less than it moves either side's own median.
# WORKLOADS is one workload name or a comma-separated list, measured one
# after the other. When PARENT is the commit of a clean working tree, both
# sides build the same source and the run is labelled an A/A noise-floor run:
# its ratio quartiles are the host's own spread, to quote beside a claim.
#
#   scripts/bench-pairs.sh PARENT WORKLOADS [PAIRS=10] [SEED=1] [SECONDS=20]
#   make bench-pairs PARENT=<rev> WORKLOAD=<name>[,<name>...] [PAIRS=10] [SEED=1]
#
# The parent is exported with `git archive` into .bench_build/pairs/parent
# (ignored by git, like everything else bench/run.sh builds), not checked out
# as a worktree: nothing is registered in .git and a stale copy cannot linger.
# Each workload's result logs (parent.jsonl, change.jsonl) go to
# .bench_build/pairs/<workload>/ and stay; a later run replaces only the logs
# of the workloads it measures.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,23p' "$0" >&2
	exit 2
fi
parent="$1" workloads="$2" pairs="${3:-10}" seed="${4:-1}" seconds="${5:-20}"

root="$(cd "$(dirname "$0")/.." && pwd)"
base="$root/.bench_build/pairs"
rev="$(git -C "$root" rev-parse --verify "$parent^{commit}")"
rm -rf "$base/parent"
mkdir -p "$base/parent"
trap 'rm -rf "$base/parent"' EXIT # the copy and its build cache; the result logs stay
git -C "$root" archive "$rev" | tar -x -C "$base/parent"

against="working tree"
if [ "$rev" = "$(git -C "$root" rev-parse HEAD)" ] && [ -z "$(git -C "$root" status --porcelain)" ]; then
	against="its own clean working tree (A/A noise-floor run)"
fi

# one SIDE DIR: run the benchmark in DIR and append its result line (the last
# line of standard output) to SIDE's log.
one() {
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) |
		tail -n 1 >>"$work/$1.jsonl"
}

# value FILE METRIC: one value per run, in run order.
value() { grep -o "\"$2\":{\"value\":[^,]*" "$1" | cut -d: -f3; }

# quartiles: q1, median, q3 of the numbers on standard input (linear
# interpolation between order statistics).
quartiles() {
	sort -g | awk '{ v[NR] = $1 }
		function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
		END { printf "%.6g %.6g %.6g\n", q(.25), q(.5), q(.75) }'
}

# sum FILE FIELD: the total of an integer field of the result lines.
sum() { grep -o "\"$2\":[0-9]*" "$1" | cut -d: -f2 | awk '{ s += $1 } END { print s + 0 }'; }

metrics=(cpu_s_per_sim_s allocs_per_pkt peak_rss_mb setup_s)

IFS=, read -r -a names <<<"$workloads"
for workload in "${names[@]}"; do
	work="$base/$workload"
	rm -rf "$work"
	mkdir -p "$work"

	echo "bench-pairs: $workload seed=$seed seconds=$seconds pairs=$pairs parent=${rev:0:7} vs $against"
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			one parent "$base/parent"
			one change "$root"
		else
			one change "$root"
			one parent "$base/parent"
		fi
		# Every end-to-end metric of this pair, parent/change.
		printf '  pair %2d' "$i"
		for metric in "${metrics[@]}"; do
			printf '  %s %s/%s' "$metric" "$(value "$work/parent.jsonl" "$metric" | tail -n 1)" "$(value "$work/change.jsonl" "$metric" | tail -n 1)"
		done
		echo
	done

	echo
	printf '%-18s %-36s %-36s %-28s %s\n' metric "parent median [q1, q3]" "change median [q1, q3]" "change wins / ties / pairs" \
		"change/parent ratio median [q1, q3]"
	for metric in "${metrics[@]}"; do
		read -r pq1 pmed pq3 < <(value "$work/parent.jsonl" "$metric" | quartiles)
		read -r cq1 cmed cq3 < <(value "$work/change.jsonl" "$metric" | quartiles)
		read -r wins ties < <(paste <(value "$work/parent.jsonl" "$metric") <(value "$work/change.jsonl" "$metric") |
			awk '$2 + 0 < $1 + 0 { w++ } $2 + 0 == $1 + 0 { t++ } END { print w + 0, t + 0 }')
		delta="$(awk -v p="$pmed" -v c="$cmed" 'BEGIN { if (p + 0 == 0) print "n/a"; else printf "%+.1f%%", (c - p) / p * 100 }')"
		# Pairs whose parent reads 0 have no ratio and are left out.
		ratios="$(paste <(value "$work/parent.jsonl" "$metric") <(value "$work/change.jsonl" "$metric") |
			awk '$1 + 0 != 0 { printf "%.6g\n", $2 / $1 }')"
		ratio="n/a"
		if [ -n "$ratios" ]; then
			read -r rq1 rmed rq3 < <(quartiles <<<"$ratios")
			ratio="$rmed [$rq1, $rq3]"
		fi
		printf '%-18s %-36s %-36s %-28s %s\n' "$metric" "$pmed [$pq1, $pq3]" "$cmed [$cq1, $cq3] ($delta)" "$wins / $ties / $pairs" "$ratio"
	done
	for side in parent change; do
		echo "$side: failed/attempted $(sum "$work/$side.jsonl" failed)/$(sum "$work/$side.jsonl" attempted)," \
			"incorrect runs $(grep -c -v '"correct":true' "$work/$side.jsonl" || true)"
	done
	echo
done
