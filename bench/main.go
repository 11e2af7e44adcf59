// Command bench is the repository's benchmark: four workloads driven
// through the public lsmssd.DB API on a file-backed store, every output
// checked against an oracle, end-to-end metrics measured with all engine
// observability off, and a separate traced run for the per-layer numbers.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: load, steady, lookup or durable-mix (default: all four)")
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		traced   = flag.Bool("traced", false, "same as -trace 1")
		reps     = flag.Int("reps", 1, "repetitions per workload, seeds seed..seed+reps-1, one process each; reports median and quartiles")
		smoke    = flag.Bool("smoke", false, "run all four workloads, traced and untraced, at about 1/50 size")
		compare  = flag.Bool("compare", false, "compare two report files: -compare old.json new.json")
		out      = flag.String("out", "", "write the report to this file instead of standard output")
		workdir  = flag.String("workdir", ".bench_build", "directory for store files (created; contents removed after each run)")
		outdir   = flag.String("outdir", filepath.Join("bench", "out"), "directory for trace files")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark contract: metric names and regression bounds")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if *traced {
		*trace = 1
	}
	err := func() error {
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare needs two report files")
			}
			return compareReports(*specPath, flag.Arg(0), flag.Arg(1))
		case *smoke:
			return runSmoke(*seed, *workdir, *outdir, os.Stdout)
		case *workload != "" && *reps == 1:
			return runOne(*workload, *seed, *seconds, *trace == 1, *workdir, *outdir)
		default:
			return runReport(*workload, *seed, *seconds, *trace, *reps, *workdir, *outdir, *out)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = fmt.Errorf("outputs were incorrect: failed > 0")

// runOne is the contract's entry point: one workload, one process, the
// result as the last line of standard output.
func runOne(name string, seed int64, seconds int, trace bool, workdir, outdir string) error {
	s, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	o := runOpts{spec: s, seed: seed, seconds: float64(seconds), trace: trace, workdir: workdir, outdir: outdir}
	e := environment(workdir)
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d seconds=%d trace=%v wal_sync=%s shards=%d | %s\n",
		name, seed, seconds, trace, s.sync, s.shards, e)
	if s.sync.String() == "every" {
		fmt.Fprintln(os.Stderr, "bench: write latencies here are fsync-bound and are this sandbox's, not a device's")
	}
	t0 := time.Now()
	res, err := run(o)
	if err != nil {
		return err
	}
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		note := ""
		if m.samples > 0 {
			note = fmt.Sprintf("  (%d samples)", m.samples)
		}
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s%s\n", k, m.Value, m.Unit, note)
	}
	fmt.Fprintf(os.Stderr, "bench: %s done in %.1fs: attempted=%d failed=%d\n", name, time.Since(t0).Seconds(), res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

func run(o runOpts) (*result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	if o.trace {
		return runTraced(o)
	}
	return runUntraced(o)
}
