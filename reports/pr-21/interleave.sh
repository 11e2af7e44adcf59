#!/usr/bin/env bash
# Before/after reports for PR 21, taken pair by pair instead of one commit
# after the other: this sandbox's speed drifts by 20-30 % over minutes
# (see README.md here), which two 20-minute `-reps 10` runs back to back
# cannot tell from a change. For each workload and each seed 7..16 it runs
#
#     bash bench/run.sh --workload W --seed S --seconds 10 --trace 0
#
# (the driver's form; the result is the last line of standard output) once
# in a checkout of the parent commit and once in this checkout, alternating
# which goes first, then merge.py joins the result lines into before.json /
# after.json — the schema `-reps 10 -out` writes, medians and quartiles
# computed as bench/report.go does, "env" copied from a real `-reps` report
# of the same machine — for `bash bench/run.sh -compare`.
#
# usage: interleave.sh <parent-checkout> <scratch-dir> <any -reps report>
set -euo pipefail
parent="$1"; out="$2"; envfrom="$3"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
mkdir -p "$out"
for w in load steady lookup durable-mix; do
	for s in $(seq 7 16); do
		first="$parent" second="$here" a=before b=after
		if (( s % 2 )); then first="$here" second="$parent" a=after b=before; fi
		(cd "$first" && bash bench/run.sh --workload "$w" --seed "$s" --seconds 10 --trace 0) 2>>"$out/$a.stderr" | tail -1 >"$out/$a.$w.$s.json"
		(cd "$second" && bash bench/run.sh --workload "$w" --seed "$s" --seconds 10 --trace 0) 2>>"$out/$b.stderr" | tail -1 >"$out/$b.$w.$s.json"
	done
done
python3 "$here/reports/pr-21/merge.py" "$out" before "$envfrom" >"$here/reports/pr-21/before.json"
python3 "$here/reports/pr-21/merge.py" "$out" after "$envfrom" >"$here/reports/pr-21/after.json"
(cd "$here" && bash bench/run.sh -compare reports/pr-21/before.json reports/pr-21/after.json) >"$here/reports/pr-21/compare.txt" 2>&1 || true
