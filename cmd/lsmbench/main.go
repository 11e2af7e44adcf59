// Command lsmbench regenerates the evaluation of Thonangi & Yang, "On
// Log-Structured Merge for Solid-State Drives" (ICDE 2017): every figure
// of Section V, as tables on stdout (or CSV files with -csv).
//
// Sizes are the paper's, scaled by -scale (default 0.05) with the level
// geometry preserved; absolute writes/MB therefore differ from the paper,
// but orderings, gaps, and crossovers are comparable. Use -quick for a
// fast smoke pass, or -scale 1 to run the original sizes.
//
// Usage:
//
//	lsmbench -fig 6            # regenerate Figure 6 (a, b and c)
//	lsmbench -fig all -csv out # everything, as CSV files under out/
//	lsmbench -fig 6 -trace t.jsonl # also record the per-merge event trace
//	lsmbench -workload all     # layout sweep: leveling vs tiering vs lazy
//	lsmbench -workload scan -layout tiering,lazy -tier-runs 8
//
// -workload replaces the figure run with the layout comparison: each
// selected layout is measured on delete-heavy, scan-heavy, and uniform
// request mixes, reporting blocks written and read per MB of requests.
//
// With -trace, every merge, flush, growth, and warning event of every run
// is appended to the file as one JSON line ({"type":"merge","event":{...}}),
// and measurement windows are bracketed by "run" marker lines carrying the
// device write counter — summing the merge events' write fields between a
// window's markers reproduces that counter exactly.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"lsmssd/internal/experiments"
	"lsmssd/internal/obs"
)

func main() {
	var (
		fig   = flag.String("fig", "all", "figure to regenerate: 1-10, 'queries', or 'all'")
		scale = flag.Float64("scale", 0.05, "size scale relative to the paper (1.0 = paper sizes)")
		seed  = flag.Int64("seed", 1, "random seed")
		csv   = flag.String("csv", "", "write CSV files into this directory instead of text to stdout")
		quick = flag.Bool("quick", false, "fewer sizes per figure (smoke pass)")
		trace = flag.String("trace", "", "append the per-merge JSONL event trace to this file")

		workloadF = flag.String("workload", "", "instead of a figure, run the layout sweep on these workloads: uniform, delete, scan, a comma list, or all")
		layoutF   = flag.String("layout", "all", "layouts for the -workload sweep: leveling, tiering, lazy, a comma list, or all")
		tierRuns  = flag.Int("tier-runs", 4, "run budget T for tiered layouts in the -workload sweep")
	)
	flag.Parse()

	// The harness allocates heavily but briefly (merge outputs, payload
	// buffers); a relaxed GC target trades memory for wall-clock time.
	debug.SetGCPercent(400)

	p := experiments.Params{Scale: *scale, Seed: *seed}.WithDefaults()

	if *workloadF != "" {
		if err := runWorkloadSweep(p, *workloadF, *layoutF, *tierRuns, *quick, *csv); err != nil {
			fmt.Fprintf(os.Stderr, "lsmbench: workload sweep: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lsmbench: %v\n", err)
			os.Exit(1)
		}
		// Buffer the file and give the ring real depth: the sink must keep
		// up with merge bursts or events drop and the trace's write sums no
		// longer reproduce the device counters.
		bw := bufio.NewWriterSize(f, 1<<20)
		sink := obs.NewJSONLSink(bw)
		bus := obs.NewBus(1 << 16)
		bus.Subscribe(sink)
		p.Bus = bus
		defer func() {
			bus.Close() // drains pending events into the sink
			if n := bus.Drops(); n > 0 {
				fmt.Fprintf(os.Stderr, "lsmbench: trace: %d events dropped (sink too slow); write sums will not reproduce device counters\n", n)
			}
			if err := sink.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "lsmbench: trace: %v\n", err)
			}
			if err := bw.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "lsmbench: trace: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "lsmbench: trace: %v\n", err)
			}
		}()
	}
	figs := strings.Split(*fig, ",")
	if *fig == "all" {
		figs = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "queries"}
	}
	for _, f := range figs {
		start := time.Now()
		tables, err := run(p, strings.TrimSpace(f), *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lsmbench: figure %s: %v\n", f, err)
			os.Exit(1)
		}
		for _, t := range tables {
			if err := emit(t, *csv); err != nil {
				fmt.Fprintf(os.Stderr, "lsmbench: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(os.Stderr, "lsmbench: figure %s done in %s\n", f, time.Since(start).Round(time.Millisecond))
	}
}

// runWorkloadSweep runs the layout × workload comparison (-workload):
// write-amp and read-amp per layout on the workloads that differentiate
// them.
func runWorkloadSweep(p experiments.Params, workloadF, layoutF string, tierRuns int, quick bool, csvDir string) error {
	layouts, err := experiments.ParseLayouts(layoutF, tierRuns)
	if err != nil {
		return err
	}
	workloads, err := experiments.ParseWorkloads(workloadF)
	if err != nil {
		return err
	}
	datasetMB, windowMB := 50.0, 25.0
	if quick {
		datasetMB, windowMB = 16.0, 8.0
	}
	_, t, err := p.LayoutSweep(layouts, workloads, datasetMB, windowMB)
	if err != nil {
		return err
	}
	return emit(t, csvDir)
}

func run(p experiments.Params, fig string, quick bool) ([]*experiments.Table, error) {
	switch fig {
	case "1":
		_, t, err := p.Fig1(100)
		return []*experiments.Table{t}, err
	case "2":
		ta, err := p.Fig2(experiments.Uniform)
		if err != nil {
			return nil, err
		}
		tb, err := p.Fig2(experiments.Normal)
		return []*experiments.Table{ta, tb}, err
	case "3":
		_, t, err := p.Fig3([]string{"Full", "ChooseBest"}, pick(quick, 50, 250), pick(quick, 10, 2.5))
		return []*experiments.Table{t}, err
	case "4":
		_, t, err := p.Fig3([]string{"Full", "ChooseBest", "TestMixed"}, pick(quick, 50, 250), pick(quick, 10, 2.5))
		return []*experiments.Table{t}, err
	case "5":
		ta, err := p.Fig5(experiments.Uniform)
		if err != nil {
			return nil, err
		}
		tb, err := p.Fig5(experiments.Normal)
		return []*experiments.Table{ta, tb}, err
	case "6":
		var sizesU, sizesT []float64
		if quick {
			sizesU = []float64{100, 300}
			sizesT = []float64{100, 400}
		}
		ta, err := p.Fig6(experiments.Uniform, sizesU)
		if err != nil {
			return nil, err
		}
		tb, err := p.Fig6(experiments.Normal, sizesU)
		if err != nil {
			return nil, err
		}
		tc, err := p.Fig6(experiments.TPC, sizesT)
		return []*experiments.Table{ta, tb, tc}, err
	case "7":
		var sizes []float64
		if quick {
			sizes = []float64{100, 300}
		}
		t, err := p.Fig7(sizes)
		return []*experiments.Table{t}, err
	case "8":
		var pcts []float64
		if quick {
			pcts = []float64{0.005, 1, 20}
		}
		t, err := p.Fig8(pcts)
		return []*experiments.Table{t}, err
	case "9":
		var payloads []float64
		if quick {
			payloads = []float64{25, 1000, 4000}
		}
		t, err := p.Fig9(payloads)
		return []*experiments.Table{t}, err
	case "10":
		var cps []float64
		if quick {
			cps = []float64{500, 1000, 1500, 2000}
		}
		t, err := p.Fig10(cps)
		return []*experiments.Table{t}, err
	case "q", "queries":
		var pols []string
		if quick {
			pols = []string{"Full-P", "ChooseBest", "Mixed"}
		}
		t, err := p.QueryOverhead(pols, 300)
		return []*experiments.Table{t}, err
	}
	return nil, fmt.Errorf("unknown figure %q (want 1-10 or queries)", fig)
}

func pick(quick bool, q, full float64) float64 {
	if quick {
		return q
	}
	return full
}

func emit(t *experiments.Table, csvDir string) error {
	if csvDir == "" {
		_, err := t.WriteTo(os.Stdout)
		fmt.Println()
		return err
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, t.Title)
	if len(name) > 60 {
		name = name[:60]
	}
	f, err := os.Create(filepath.Join(csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(os.Stdout, "wrote %s\n", f.Name())
	return t.CSV(f)
}
