#!/usr/bin/env bash
# Parent/change pairs for the Bloom-filter rebuild at reopen:
# ../pr-24/interleave.sh with the workloads as arguments, so `lookup` can
# take more pairs than the others. For each workload and each seed it runs
# the benchmark's command
#
#     bash bench/run.sh --workload W --seed S --seconds 10 --trace 0
#
# once in a checkout of the parent commit and once in this checkout,
# alternating which goes first (odd seeds: the change first), then
# ../pr-21/merge.py joins every result line collected so far in the scratch
# directory into before.json / after.json for `bash bench/run.sh -compare`.
#
# usage: interleave.sh <parent-checkout> <scratch-dir> <env-report> <first-seed> <last-seed> <workload>...
set -euo pipefail
parent="$1"; out="$2"; envfrom="$3"; lo="$4"; hi="$5"; shift 5
here="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
mkdir -p "$out"
for w in "$@"; do
	for s in $(seq "$lo" "$hi"); do
		first="$parent" second="$here" a=before b=after
		if (( s % 2 )); then first="$here" second="$parent" a=after b=before; fi
		(cd "$first" && bash bench/run.sh --workload "$w" --seed "$s" --seconds 10 --trace 0) 2>>"$out/$a.stderr" | tail -1 >"$out/$a.$w.$s.json"
		(cd "$second" && bash bench/run.sh --workload "$w" --seed "$s" --seconds 10 --trace 0) 2>>"$out/$b.stderr" | tail -1 >"$out/$b.$w.$s.json"
	done
done
python3 "$here/reports/pr-21/merge.py" "$out" before "$envfrom" >"$here/reports/pr-29/before.json"
python3 "$here/reports/pr-21/merge.py" "$out" after "$envfrom" >"$here/reports/pr-29/after.json"
(cd "$here" && bash bench/run.sh -compare reports/pr-29/before.json reports/pr-29/after.json) >"$here/reports/pr-29/compare.txt" 2>&1 || true
