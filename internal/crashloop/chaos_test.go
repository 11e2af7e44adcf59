package crashloop

import (
	"strings"
	"testing"
)

// TestChaosEnospcScenario runs one chaos scenario end to end: a capacity
// ceiling on a single shard of a four-shard store must demote exactly
// that shard to read-only (with writes rejected fast) while its siblings
// stay byte-identical to the paired fault-free run, and a crash+reopen
// must recover every acknowledged write. The full six-scenario soak is
// `make chaos`; this keeps one scenario inside `go test ./...`.
func TestChaosEnospcScenario(t *testing.T) {
	rep, err := RunChaos(ChaosConfig{
		Dir:      t.TempDir(),
		Ops:      1200,
		Seed:     7,
		Scenario: "enospc",
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos enospc scenario: %v", err)
	}
	if len(rep.Scenarios) != 1 || rep.Scenarios[0].Name != "enospc" {
		t.Fatalf("report scenarios = %+v, want exactly enospc", rep.Scenarios)
	}
	sc := rep.Scenarios[0]
	if sc.Rejected == 0 {
		t.Fatal("no writes were rejected after the read-only demotion")
	}
	if sc.FinalState != "read-only" {
		t.Fatalf("faulted shard final state %q, want read-only", sc.FinalState)
	}
	if sc.HealthEvents == 0 {
		t.Fatal("demotion published no health events")
	}
	if !strings.Contains(rep.String(), "enospc") {
		t.Fatalf("report text does not mention the scenario:\n%s", rep)
	}
}

// TestChaosWriteFailScenario: a permanent device write failure on one
// shard ends its scheduler at the first merge step that meets it. The
// shard must end read-only with the cause background-failed, every write
// to it acknowledged or refused as read-only, its siblings byte-identical
// to the paired fault-free run, and a crash+reopen must recover every
// acknowledged write.
func TestChaosWriteFailScenario(t *testing.T) {
	rep, err := RunChaos(ChaosConfig{
		Dir:      t.TempDir(),
		Ops:      1200,
		Seed:     7,
		Scenario: "writefail",
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos writefail scenario: %v", err)
	}
	sc := rep.Scenarios[0]
	if sc.FinalState != "read-only" || sc.Rejected == 0 || sc.Faulted != 0 {
		t.Fatalf("faulted shard ended %q with %d writes rejected and %d failed raw; want read-only, some rejected, none raw",
			sc.FinalState, sc.Rejected, sc.Faulted)
	}
}

func TestChaosRejectsBadConfig(t *testing.T) {
	if _, err := RunChaos(ChaosConfig{Dir: t.TempDir(), Shards: 3}); err == nil {
		t.Fatal("RunChaos accepted a non-power-of-two shard count")
	}
	if _, err := RunChaos(ChaosConfig{}); err == nil {
		t.Fatal("RunChaos accepted an empty Dir")
	}
	if _, err := RunChaos(ChaosConfig{Dir: t.TempDir(), Scenario: "no-such"}); err == nil {
		t.Fatal("RunChaos accepted an unknown scenario name")
	}
}
