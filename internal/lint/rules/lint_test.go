package rules

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lsmssd/internal/lint"
)

// fixturePrefix is the import path under which the fixture corpus lives.
const fixturePrefix = "lsmssd/internal/lint/rules/testdata/src/"

// fixtureConfig adapts the production rules to the testdata packages:
// package-scoped rules are re-keyed onto the fixture paths (the
// production config keys on real package paths, which fixtures cannot
// assume).
func fixtureConfig() lint.Config {
	cfg := lint.DefaultConfig()
	cfg.Layering = map[string][]string{
		fixturePrefix + "layering": {
			"lsmssd/internal/policy", // direct
			"lsmssd/internal/level",  // transitive via merge
		},
	}
	cfg.LockCheckedPkgs = []string{fixturePrefix + "lockdiscipline", fixturePrefix + "shardlockorder"}
	cfg.GoShutdownPkgs = []string{fixturePrefix + "goshutdown"}
	// The retry-bounded fixture calls Device.Read/Write directly; exempt it
	// from device-io so only the rule under test fires.
	for i, c := range cfg.Confined {
		if c.Rule == "device-io" {
			cfg.Confined[i].Allowed = append(c.Allowed, fixturePrefix+"retrybounded")
		}
	}
	// The fixture needs a second fan-out name so a failing fan-out shape
	// can coexist with the fixed lockShards.
	cfg.ShardFanoutFuncs = append(cfg.ShardFanoutFuncs, "lockShardsDesc")
	return cfg
}

// wantComments scans fixture files for `// want rule...` markers and
// returns the expected (file:line → rules) map.
func wantComments(t *testing.T, dir string) map[string][]string {
	t.Helper()
	want := make(map[string][]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			text := sc.Text()
			i := strings.Index(text, "// want ")
			if i < 0 {
				continue
			}
			abs, err := filepath.Abs(path)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s:%d", abs, line)
			want[key] = append(want[key], strings.Fields(text[i+len("// want "):])...)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestFixturesDetected proves every seeded violation of every rule is
// reported, and nothing else: each fixture under testdata/src carries both
// the failing shape (marked `// want rule`) and its fixed counterpart
// (unmarked). Across the corpus every registered rule must be seeded at
// least once, and every marker must name a registered rule.
func TestFixturesDetected(t *testing.T) {
	entries, err := os.ReadDir("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	seeded := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		fix := e.Name()
		want := wantComments(t, filepath.Join("testdata/src", fix))
		for _, rules := range want {
			for _, r := range rules {
				seeded[r] = true
			}
		}
		t.Run(fix, func(t *testing.T) {
			rel := "./internal/lint/rules/testdata/src/" + fix
			findings, err := lint.Run("../../..", []string{rel}, fixtureConfig(), All())
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 && fix != "suppress" {
				t.Fatalf("fixture %s has no want comments", fix)
			}
			got := make(map[string][]string)
			for _, f := range findings {
				key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
				got[key] = append(got[key], f.Rule)
			}
			for key, rules := range want {
				if !sameSet(got[key], rules) {
					t.Errorf("%s: want rules %v, got %v", key, rules, got[key])
				}
			}
			for key, rules := range got {
				if _, ok := want[key]; !ok {
					t.Errorf("%s: unexpected finding(s) %v", key, rules)
				}
			}
		})
	}
	registered := map[string]bool{}
	for _, r := range All() {
		registered[r.Name] = true
		if !seeded[r.Name] {
			t.Errorf("rule %s has no `// want %s` marker in testdata/src", r.Name, r.Name)
		}
	}
	for r := range seeded {
		if !registered[r] {
			t.Errorf("a `// want %s` marker names an unregistered rule", r)
		}
	}
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int)
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		seen[x]--
		if seen[x] < 0 {
			return false
		}
	}
	return true
}

// TestSelect covers the -rules flag resolution.
func TestSelect(t *testing.T) {
	rs, err := Select("")
	if err != nil || len(rs) != len(All()) {
		t.Fatalf("empty selection should return all rules: %v, %d", err, len(rs))
	}
	rs, err = Select("global-rand, lock-discipline")
	if err != nil || len(rs) != 2 {
		t.Fatalf("two-rule selection: %v, %d", err, len(rs))
	}
	if _, err := Select("no-such-rule"); err == nil {
		t.Fatal("unknown rule name should error")
	}
}

// TestRepositoryClean is the acceptance gate: the production rule set
// reports nothing on the repository itself.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips go list over the whole module")
	}
	findings, err := lint.Run("../../..", []string{"./..."}, lint.DefaultConfig(), All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
