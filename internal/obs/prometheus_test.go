package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWritePromGolden pins the exact text exposition: family ordering,
// HELP/TYPE lines, label rendering and escaping, cumulative buckets with
// sparse le sets, the +Inf bucket, and _sum scaled to seconds.
func TestWritePromGolden(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Nanosecond) // bucket 7, le 1.28e-07s
	h.Observe(100 * time.Nanosecond)
	h.Observe(3 * time.Microsecond) // bucket 12, le 4.096e-06s
	h.Observe(2 * time.Millisecond) // bucket 21, le 0.002097152s

	fams := []Family{
		{
			Name: "lsmssd_blocks_written_total",
			Help: "Data blocks written to the device (the paper's cost metric).",
			Type: TypeCounter,
			Samples: []Sample{
				{Value: 12345},
			},
		},
		{
			Name: "lsmssd_level_waste_factor",
			Help: "Fraction of empty record slots in the level.",
			Type: TypeGauge,
			Samples: []Sample{
				{Labels: []Label{{Name: "level", Value: "1"}}, Value: 0.0625},
				{Labels: []Label{{Name: "level", Value: "2"}}, Value: 0.19},
			},
		},
		{
			Name: "lsmssd_escapes",
			Help: "Help with a \\ backslash and a\nnewline.",
			Type: TypeGauge,
			Samples: []Sample{
				{Labels: []Label{{Name: "k", Value: "quote\" slash\\ nl\n"}}, Value: 1},
			},
		},
		{
			Name: "lsmssd_op_duration_seconds",
			Help: "Operation latency.",
			Type: TypeHistogram,
			Hists: []HistSample{
				{Labels: []Label{{Name: "op", Value: "get"}}, Snap: h.Snapshot(), Scale: 1e-9},
				{Labels: []Label{{Name: "op", Value: "scan"}}, Snap: HistSnapshot{}, Scale: 1e-9},
			},
		},
		{
			// One sample per phase, so the label every phase renders under
			// is part of the pinned exposition.
			Name: "lsmssd_phase_duration_seconds",
			Help: "Traced-operation time by engine phase.",
			Type: TypeHistogram,
			Hists: func() []HistSample {
				var hs []HistSample
				for p := Phase(0); p < NumPhases; p++ {
					var ph Histogram
					ph.Observe(time.Duration(p+1) * time.Microsecond)
					hs = append(hs, HistSample{Labels: []Label{{Name: "phase", Value: p.String()}}, Snap: ph.Snapshot(), Scale: 1e-9})
				}
				return hs
			}(),
		},
	}

	var sb strings.Builder
	if err := WriteProm(&sb, fams); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("rendered exposition differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
