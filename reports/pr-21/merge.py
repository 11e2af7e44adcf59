"""Joins the result lines interleave.sh collected into one report with the
schema of `bench/run.sh -reps N -out`: per metric all values in seed order,
median and quartiles computed as bench/report.go's quartiles() does."""
import glob, json, re, sys

WAL_SYNC = {"load": "interval", "steady": "interval", "lookup": "interval", "durable-mix": "every"}


def quartiles(values):
    d = sorted(values)
    if len(d) == 1:
        return d[0], d[0], d[0]
    m = len(d) + 1

    def at(i):
        j, delta = i * m // 4, i * m % 4
        j = min(max(j, 1), len(d) - 1)
        return (d[j - 1] * (4 - delta) + d[j] * delta) / 4

    return at(1), at(2), at(3)


def main(directory, side, env_from):
    out = {"env": json.load(open(env_from))["env"], "seconds": 10, "traced": False, "workloads": {}}
    for w in WAL_SYNC:
        acc = {"wal_sync": WAL_SYNC[w], "seeds": [], "attempted": 0, "failed": 0, "metrics": {}}
        files = glob.glob(f"{directory}/{side}.{w}.*.json")
        for f in sorted(files, key=lambda f: int(re.search(r"\.(\d+)\.json$", f).group(1))):
            r = json.load(open(f))
            acc["seeds"].append(int(re.search(r"\.(\d+)\.json$", f).group(1)))
            acc["attempted"] += r["attempted"]
            acc["failed"] += r["failed"]
            for name, m in r["metrics"].items():
                acc["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        for m in acc["metrics"].values():
            m["q1"], m["median"], m["q3"] = quartiles(m["values"])
        out["workloads"][w] = acc
    json.dump(out, sys.stdout, indent=2)
    print()


main(*sys.argv[1:4])
