#!/usr/bin/env bash
# Byte-identity against a parent revision: a refactor must leave every
# simulated output unchanged. Builds cmd/diablo, cmd/campaign and
# examples/quickstart from PARENT and from the working tree, runs each command
# below on both sides in the same directory (output files are named relative
# to it, so notes that print them match) with $SRC set to that side's source
# tree (so a changed run spec shows as a difference), drops the `# wall time`
# lines, and compares every output file and the standard output and exit
# status of every entry. Names each file that differs, and exits 1 at the end
# if any did.
#
#   scripts/identity.sh PARENT
#   make identity PARENT=<rev>
#
# The parent is exported with `git archive` into .identity_build/src (ignored
# by git), not checked out as a worktree; the copy and both sides' tools are
# removed on exit, and the outputs stay in .identity_build/<side>/<name>.
# About 35 s per side on 2 vCPUs.
set -euo pipefail

if [ $# -ne 1 ]; then
	sed -n '2,18p' "$0" >&2
	exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
base="$root/.identity_build"
rev="$(git -C "$root" rev-parse --verify "$1^{commit}")"
rm -rf "$base"
mkdir -p "$base/src"
trap 'rm -rf "$base/src" "$base/bin"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$base/src"

tools=(./cmd/diablo ./cmd/campaign ./examples/quickstart)
(cd "$base/src" && go build -o "$base/bin/parent/" "${tools[@]}")
(cd "$root" && go build -o "$base/bin/change/" "${tools[@]}")

# name|command: each runs in .identity_build/run/<name> with the side's tools
# first on PATH and $SRC its source tree. The observed single runs replay
# one-cell specs from testdata/runs.
runs=(
	"fig6a|diablo run fig6a -iterations 2"
	"fig6b|diablo run fig6b -iterations 2"
	"fig8|diablo run fig8 -requests 40"
	"fig9|diablo run fig9 -requests 20"
	"fig10|diablo run fig10 -requests 20"
	"fig11|diablo run fig11 -requests 20"
	"fig12|diablo run fig12 -requests 20"
	"fig13|diablo run fig13 -requests 20"
	"fig14|diablo run fig14 -requests 20"
	"fig15|diablo run fig15 -requests 20"
	"faultmc|diablo run faultmc -requests 5"
	"faultincast|diablo run faultincast -iterations 2"
	"campaign-smoke|campaign run -preset smoke -workers 0 -q -o CAMPAIGN_results.json"
	"campaign-fig12|campaign run -preset fig12 -q -o CAMPAIGN_fig12.json"
	"quickstart|quickstart"
	"memcache-sample|campaign replay -spec \"\$SRC/testdata/runs/memcache-udp-tordegrade.json\" -cell 31x16x1/2.6.39/udp/s1/fault-01 -o s.manifest.json -trace-out s.trace.json && diablo validate s.trace.json s.manifest.json"
	"memcache|campaign replay -spec \"\$SRC/testdata/runs/memcache-tcp-churn.json\" -cell 31x16x1/2.6.39/tcp/s1/baseline -o mc.manifest.json -trace-out mc.trace.json && diablo validate mc.trace.json mc.manifest.json"
	"incast|campaign replay -spec \"\$SRC/testdata/runs/incast-epoll-edgedegrade.json\" -cell 9x1x1/2.6.39/epoll/s1/fault-01 -o incast.manifest.json -trace-out incast.trace.json && diablo validate incast.trace.json incast.manifest.json"
)

# run SIDE SRC NAME COMMAND: leaves the outputs, stdout.txt and exit.txt in
# .identity_build/SIDE/NAME.
run() {
	local dir="$base/run/$3"
	rm -rf "$dir"
	mkdir -p "$dir"
	status=0
	(cd "$dir" && SRC="$2" PATH="$base/bin/$1:$PATH" bash -c "$4") >"$dir/stdout.txt" || status=$?
	echo "$status" >"$dir/exit.txt"
	sed -i '/^# wall time/d' "$dir/stdout.txt"
	mkdir -p "$base/$1"
	mv "$dir" "$base/$1/$3"
}

differ=0
for entry in "${runs[@]}"; do
	name="${entry%%|*}" cmd="${entry#*|}"
	echo "identity: $cmd"
	run parent "$base/src" "$name" "$cmd"
	run change "$root" "$name" "$cmd"
	files="$( (cd "$base/parent/$name" && find . -type f) ; (cd "$base/change/$name" && find . -type f) )"
	for f in $(echo "$files" | sort -u); do
		if ! cmp "$base/parent/$name/$f" "$base/change/$name/$f"; then
			echo "identity: $name/${f#./} differs from ${rev:0:7}" >&2
			differ=$((differ + 1))
		fi
	done
done
if [ "$differ" -ne 0 ]; then
	echo "identity: $differ output files differ from ${rev:0:7}" >&2
	exit 1
fi
echo "identity: every output byte-identical to ${rev:0:7}"
