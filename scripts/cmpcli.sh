#!/usr/bin/env bash
# Checks that this checkout's CLIs and examples print the same bytes as
# a parent revision's: the check a refactor that promises byte-identical
# output runs before it lands.
#
#   bash scripts/cmpcli.sh PARENT_REV
#
# The parent revision is exported with `git archive` into a temporary
# directory (under $TMPDIR), which is removed on exit. Each side builds
# ./cmd/... and ./examples/... with -buildvcs=false and runs every
# command of CASES from its own source tree; each command's stdout,
# stderr and exit status are compared with cmp. The script prints the
# name of every command whose output differs and exits 1 if any does.
set -euo pipefail

# CASES lists NAME|COMMAND, one command per entry. sweep-grid keeps the
# layer-cost cache's counters on stderr (-cachestats).
readonly CASES=(
	"evaluate-all|evaluate -all"
	"evaluate-ablations|evaluate -ablations"
	"schedule|schedule"
	"schedule-trace|schedule -trace"
	"schedule-npus2-trace|schedule -npus 2 -trace"
	"sweep-grid|sweep -grid -workers 1 -json -cachestats"
	"sweep-dse|sweep -dse -json"
	"perfsim-fig3|perfsim -fig3"
	"perfsim-fig4|perfsim -fig4"
	"scenarios-all|scenarios -all -json"
	"scenarios-run|scenarios -run urban-8cam -json -workers 1"
	"pareto|pareto -scenarios urban-8cam,highway-5cam -linkbw 25,50,100,200,400 -frames 8 -window 4 -json"
	"pareto-evolve|pareto -evolve -scenarios urban-8cam -meshes 4x4,6x6 -types simba,eco,big,bwopt -linkbw 50,150 -frames 4 -window 2 -generations 10 -population 12 -json"
	"quickstart|quickstart"
	"customworkload|customworkload"
	"heterogeneous|heterogeneous"
	"scaling|scaling"
)

if [ $# -ne 1 ]; then
	echo "usage: bash scripts/cmpcli.sh PARENT_REV" >&2
	exit 2
fi
cd "$(git rev-parse --show-toplevel)"
if ! commit=$(git rev-parse --verify --quiet "$1^{commit}"); then
	echo "cmpcli: unknown revision $1" >&2
	exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/src"
git archive "$commit" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -buildvcs=false -o "$tmp/parent/bin/" ./cmd/... ./examples/...)
go build -buildvcs=false -o "$tmp/change/bin/" ./cmd/... ./examples/...

# run SIDE SRC NAME COMMAND: COMMAND with SIDE's binaries from SRC, its
# stdout, stderr and exit status written under $tmp/SIDE/NAME.
run() {
	local -a argv
	read -r -a argv <<<"$4"
	local status=0
	(cd "$2" && "$tmp/$1/bin/${argv[0]}" "${argv[@]:1}" >"$tmp/$1/$3.out" 2>"$tmp/$1/$3.err") || status=$?
	echo "$status" >"$tmp/$1/$3.status"
}

differ=0
for c in "${CASES[@]}"; do
	name=${c%%|*} command=${c#*|}
	run parent "$tmp/src" "$name" "$command"
	run change . "$name" "$command"
	for f in out err status; do
		if ! cmp -s "$tmp/parent/$name.$f" "$tmp/change/$name.$f"; then
			echo "differs: $name ($command), $f"
			differ=1
		fi
	done
done
if ((differ)); then
	exit 1
fi
echo "cmpcli: ${#CASES[@]} commands print the same bytes as $commit"
