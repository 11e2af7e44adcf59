#!/usr/bin/env bash
# Parent/change benchmark pairs, writing their reports next to this
# script. For each workload and each seed it runs the benchmark's command
#
#     bash bench/run.sh --workload W --seed S --seconds 10 --trace 0
#
# once in a checkout of the parent commit and once in a frozen copy of the
# change, alternating which goes first (odd seeds: the change first), then
# ../pr-21/merge.py joins every result line collected so far in the scratch
# directory into before.json / after.json for `bash bench/run.sh -compare`.
#
# usage: interleave.sh <parent-checkout> <change-checkout> <scratch-dir> <env-report> <first-seed> <last-seed> <workload>...
set -euo pipefail
parent="$1"; change="$2"; out="$3"; envfrom="$4"; lo="$5"; hi="$6"; shift 6
here="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
report="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out"
for w in "$@"; do
	for s in $(seq "$lo" "$hi"); do
		first="$parent" second="$change" a=before b=after
		if (( s % 2 )); then first="$change" second="$parent" a=after b=before; fi
		(cd "$first" && bash bench/run.sh --workload "$w" --seed "$s" --seconds 10 --trace 0) 2>>"$out/$a.stderr" | tail -1 >"$out/$a.$w.$s.json"
		(cd "$second" && bash bench/run.sh --workload "$w" --seed "$s" --seconds 10 --trace 0) 2>>"$out/$b.stderr" | tail -1 >"$out/$b.$w.$s.json"
	done
done
python3 "$here/reports/pr-21/merge.py" "$out" before "$envfrom" >"$report/before.json"
python3 "$here/reports/pr-21/merge.py" "$out" after "$envfrom" >"$report/after.json"
(cd "$here" && bash bench/run.sh -compare "$report/before.json" "$report/after.json") >"$report/compare.txt" 2>&1 || true
