package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// env is recorded with every output, so two sets of numbers can be checked
// for having been taken under the same conditions.
type env struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Filesystem string `json:"filesystem"` // of the directory the store files live in
}

func (e env) String() string {
	return fmt.Sprintf("commit=%s %s nproc=%d GOMAXPROCS=%d fs=%s", e.Commit, e.Go, e.NumCPU, e.GOMAXPROCS, e.Filesystem)
}

func environment(workdir string) env {
	e := env{Commit: "unknown", Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Filesystem: "unknown"}
	// The driver's checkout is not a git repository; "unknown" is expected there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	var st syscall.Statfs_t
	if err := os.MkdirAll(workdir, 0o755); err == nil && syscall.Statfs(workdir, &st) == nil {
		e.Filesystem = fsName(int64(st.Type))
	}
	return e
}

func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("%#x", magic)
}

// contract is BENCHMARK.json.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []contractMetric        `json:"end_to_end"`
	PerLayer  []contractMetric        `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// summary is one metric over the repetitions of one workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type workloadReport struct {
	WALSync   string             `json:"wal_sync"`
	Seeds     []int64            `json:"seeds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
}

type report struct {
	Env       env                        `json:"env"`
	Seconds   int                        `json:"seconds"`
	Traced    bool                       `json:"traced"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// quartiles matches Python's statistics.quantiles(values, n=4), the rule
// the driver applies to this benchmark's outputs.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	at := func(i int) float64 {
		j, delta := i*m/4, i*m%4
		j = min(max(j, 1), len(d)-1)
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// runReport runs each requested workload reps times, every run in its own
// process so that peak memory and leftover state cannot carry over, and
// writes medians and quartiles per metric.
func runReport(only string, seed int64, seconds, trace, reps int, workdir, outdir, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Env: environment(workdir), Seconds: seconds, Traced: trace == 1, Workloads: map[string]*workloadReport{}}
	var failed error
	for _, s := range specs {
		if only != "" && s.name != only {
			continue
		}
		wr := &workloadReport{WALSync: s.sync.String(), Metrics: map[string]summary{}}
		rep.Workloads[s.name] = wr
		values := map[string][]float64{}
		units := map[string]string{}
		for r := 0; r < reps; r++ {
			cmd := exec.Command(self, "-workload", s.name, "-seed", strconv.FormatInt(seed+int64(r), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-workdir", workdir, "-outdir", outdir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			res, perr := lastResult(out)
			if perr != nil {
				return fmt.Errorf("%s seed %d: %w", s.name, seed+int64(r), errors.Join(err, perr))
			}
			if err != nil || !res.Correct {
				failed = errIncorrect
			}
			wr.Seeds = append(wr.Seeds, seed+int64(r))
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		for name, v := range values {
			q1, q2, q3 := quartiles(v)
			wr.Metrics[name] = summary{Unit: units[name], Median: q2, Q1: q1, Q3: q3, Values: v}
		}
	}
	if len(rep.Workloads) == 0 {
		return fmt.Errorf("unknown workload %q", only)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if outPath != "" {
		err = os.WriteFile(outPath, b, 0o644)
	} else {
		_, err = os.Stdout.Write(b)
	}
	return errors.Join(err, failed)
}

// lastResult parses the last line of a run's standard output.
func lastResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// runSmoke runs every workload untraced and traced at about 1/50 size in
// this process, printing one result line per run. It proves the harness
// builds, the oracle passes and every metric is produced; its numbers mean
// nothing.
func runSmoke(seed int64, workdir, outdir string, w io.Writer) error {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			o := runOpts{spec: s.shrink(50), seed: seed, seconds: 0.2, trace: trace, smoke: true, workdir: workdir, outdir: outdir}
			res, err := run(o)
			if err != nil {
				return fmt.Errorf("%s (trace=%v): %w", s.name, trace, err)
			}
			line, err := json.Marshal(struct {
				Workload string `json:"workload"`
				Traced   bool   `json:"traced"`
				*result
			}{s.name, trace, res})
			if err != nil {
				return err
			}
			fmt.Fprintln(bw, string(line))
			if !res.Correct {
				return fmt.Errorf("%s (trace=%v): %w", s.name, trace, errIncorrect)
			}
		}
	}
	return nil
}

// compareReports applies the bounds in the contract to two reports of the
// same kind. A metric whose run-to-run spread exceeds its bound cannot
// show a change of that size either way, so it is reported as unresolved,
// not as unchanged. Any regression makes the command fail.
func compareReports(specPath, oldPath, newPath string) error {
	c, err := loadContract(specPath)
	if err != nil {
		return err
	}
	load := func(path string) (*report, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	oldR, err := load(oldPath)
	if err != nil {
		return err
	}
	newR, err := load(newPath)
	if err != nil {
		return err
	}
	if oldR.Env.GOMAXPROCS != newR.Env.GOMAXPROCS || oldR.Env.Filesystem != newR.Env.Filesystem || oldR.Seconds != newR.Seconds {
		fmt.Printf("warning: environments differ: old {%s, %ds} new {%s, %ds}\n", oldR.Env, oldR.Seconds, newR.Env, newR.Seconds)
	}
	regressions := 0
	fmt.Printf("%-12s %-24s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, w := range c.Workloads {
		o, n := oldR.Workloads[w.Name], newR.Workloads[w.Name]
		if o == nil || n == nil {
			continue
		}
		for _, m := range c.EndToEnd {
			a, okA := o.Metrics[m.Name]
			b, okB := n.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			worse := ratio(b.Median-a.Median, a.Median) // positive = got worse
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(ratio(a.Q3-a.Q1, a.Median), ratio(b.Q3-b.Q1, b.Median))
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressions++
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-12s %-24s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				w.Name, m.Name, a.Median, b.Median, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s) beyond the bounds in %s", regressions, specPath)
	}
	return nil
}
