"""Summarises the merge steps of --trace 1 trace files (bench/out/<workload>.trace.json):
count, Duration and LockHold quantiles in ms, and the steps longer than 5 ms.
usage: python3 lockhold.py <trace.json>..."""
import json, sys, statistics
def q(v, p):
    v = sorted(v); return v[min(len(v)-1, int(p*len(v)))] if v else float('nan')
for path in sys.argv[1:]:
    d = json.load(open(path))
    ms = [e["event"] for e in d["events"] if e["kind"] == "merge"]
    dur = [m["Duration"]/1e6 for m in ms]
    hold = [m.get("LockHold", 0)/1e6 for m in ms]
    print(path, "merges", len(ms))
    print("  Duration ms p50 %.3f p99 %.3f max %.3f sum %.1f" % (q(dur,.5), q(dur,.99), max(dur), sum(dur)))
    if any(hold):
        print("  LockHold ms p50 %.4f p99 %.4f max %.4f sum %.1f; over 1ms: %d" % (q(hold,.5), q(hold,.99), max(hold), sum(hold), sum(h > 1 for h in hold)))
    print("  steps over 5ms:", sum(x > 5 for x in dur))
