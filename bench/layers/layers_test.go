package layers

import "testing"

// TestRunOnce runs one iteration of every replay: the layer functions they
// call still exist and accept workload-shaped inputs.
func TestRunOnce(t *testing.T) {
	out, err := Run(Shape{IndexBlocks: 512, TempDir: t.TempDir()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 25 {
		t.Fatalf("only %d replay metrics: %v", len(out), out)
	}
	for name, v := range out {
		t.Logf("%-32s %12.1f", name, v)
	}
}
