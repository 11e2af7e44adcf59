// Package lint is the driver for lsmlint, the repository's static
// analyzer. It enforces the coding disciplines the engine's correctness
// argument rests on, none of which the compiler can check.
//
// The driver owns package loading (go list + go/parser + go/types against
// compiler export data — no third-party machinery), the Rule registry
// contract, finding collection/sorting, and the `//lint:ignore`
// suppression mechanism. The rules themselves live in internal/lint/rules;
// path-sensitive rules build on internal/lint/cfg (control-flow graphs)
// and internal/lint/dataflow (fixpoint engine).
//
// Suppression: a comment of the form
//
//	//lint:ignore rule1[,rule2] reason
//
// suppresses the named rules on the comment's line and on the line
// immediately after it (covering both end-of-line and preceding-line
// placement). A directive with no reason is itself a finding
// (rule "lint-ignore"): every suppression must say why.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Msg)
}

// Rule is one named check. Run inspects a single typechecked package and
// returns its findings; the driver handles sorting and suppression.
type Rule struct {
	Name string
	Doc  string
	Run  func(*Context) []Finding
}

// Context is everything a rule sees: one loaded package plus the active
// configuration.
type Context struct {
	Pkg *Package
	Cfg Config
}

// Confinement restricts calls of Methods on Type (any named type when
// Type is "") declared in Pkg to the Allowed packages. One row is one
// syntactic confinement rule; Why ends its finding message.
type Confinement struct {
	Rule    string
	Pkg     string
	Type    string
	Methods []string
	Allowed []string
	Why     string
}

// Obligation makes every call whose first result is *Pkg.Type start an
// obligation that only a Method call on the value (direct or deferred) or
// the value escaping to a new owner discharges, on every path.
type Obligation struct {
	Rule   string
	Pkg    string
	Type   string
	Method string
}

// Config selects the rule parameters. DefaultConfig returns the
// repository's production configuration; tests substitute fixture paths.
type Config struct {
	// ModulePrefix is the module path; packages under it are "ours" for
	// the unchecked-err rule.
	ModulePrefix string
	// RandAllowed lists the math/rand functions that remain legal
	// (constructors taking an explicit seed or source).
	RandAllowed []string
	// TreePkg is the package defining the engine Tree whose mutations the
	// lock-discipline rule guards.
	TreePkg string
	// ObsPkg is the package defining the observability event types whose
	// construction is restricted to ObsAllowed, the instrumented packages.
	// Test files are never linted, so sinks remain testable everywhere.
	ObsPkg     string
	ObsAllowed []string

	// Confined is the table behind device-io, tree-state, compaction-step
	// and wal-frame.
	Confined []Confinement
	// Obligations is the table behind view-refcount and span-finish.
	Obligations []Obligation

	// RetryAllowed lists the packages allowed to hand-roll sleep-retry
	// loops around the device-io row's methods. Everywhere else the
	// retry-bounded rule requires internal/retry's capped, accounted backoff.
	RetryAllowed []string

	// Layering maps a package path to import paths it must not depend on,
	// directly or transitively.
	Layering map[string][]string

	// LockCheckedPkgs lists the packages where lock-discipline and
	// shard-lock-order apply: every TreeMutateMethods call must be dominated
	// by a LockName.Lock() with an unlock on all exit paths, and no writer
	// lock may be taken while one may be held. Packages below the DB layer
	// (core, compaction) mutate under a caller-holds-lock contract and are
	// excluded.
	LockCheckedPkgs []string
	// LockName is the mutex field ordering commits ("writerMu").
	LockName string
	// LockAcquireHelpers are functions that acquire LockName on the
	// caller's behalf, each paired with a LockReleaseHelpers entry.
	LockAcquireHelpers []string
	// LockReleaseHelpers are functions that release what an acquire helper
	// took; calling or deferring one counts as the unlock.
	LockReleaseHelpers []string
	// TreeMutateMethods are the mutating methods on TreePkg's Tree that
	// the lock-discipline rule guards.
	TreeMutateMethods []string
	// LockHeldFuncs are same-package functions under the caller-holds-lock
	// contract whose call sites the rule checks as it does tree mutations:
	// calling one on a path where LockName may not be held is a finding.
	// (The "Locked" suffix alone only exempts a function's body.)
	LockHeldFuncs []string
	// LockFreeFuncs are same-package functions that run both with and
	// without LockName held by their caller, so they must never acquire it
	// themselves: doing so self-deadlocks the callers that hold it.
	LockFreeFuncs []string
	// ShardFanoutFuncs are the sanctioned all-shard lock fan-out helpers:
	// the only functions that may hold several writer locks, which they
	// must take by ranging over the shard slice (ascending order).
	ShardFanoutFuncs []string

	// SentinelPkgs lists the packages whose returned errors carry sentinel
	// identity (wal, storage): the sentinel-error-flow rule forbids
	// blank-discarding them, rewrapping them without %w, or dropping them
	// on any path.
	SentinelPkgs []string

	// GoShutdownPkgs lists the packages where every `go` statement must
	// have a shutdown path: a select/receive on a quit-like channel, a
	// range over a channel, or a sole-statement delegate call.
	GoShutdownPkgs []string
	// GoDelegates are method names whose sole-statement call inside a
	// goroutine counts as delegating lifecycle to the callee
	// (http.Server.Serve blocks until the server is closed).
	GoDelegates []string
}

// DefaultConfig is the production rule set for this repository.
func DefaultConfig() Config {
	lowDeny := []string{
		"lsmssd/internal/core",
		"lsmssd/internal/policy",
		"lsmssd/internal/level",
		"lsmssd/internal/merge",
	}
	return Config{
		ModulePrefix: "lsmssd",
		RandAllowed:  []string{"New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8"},
		TreePkg:      "lsmssd/internal/core",
		ObsPkg:       "lsmssd/internal/obs",
		ObsAllowed: []string{
			"lsmssd/internal/obs",
			"lsmssd/internal/core",
			"lsmssd/internal/merge",
			"lsmssd/internal/policy",
			"lsmssd/internal/compaction",  // StallEvent at the backpressure points
			"lsmssd/internal/experiments", // RunEvent window markers
			"lsmssd",                      // WALEvent/RecoveryEvent at the DB's durability points
		},
		Confined: []Confinement{{
			Rule: "device-io", Pkg: "lsmssd/internal/storage", Methods: []string{"Read", "ReadInto", "Write"},
			Allowed: []string{
				"lsmssd/internal/storage",
				"lsmssd/internal/cache",
				"lsmssd/internal/level",
				"lsmssd/internal/merge",
				"lsmssd/internal/core",
				"lsmssd/internal/faultdev", // transparent Device wrapper; delegates accounting to the inner device
			},
			Why: "raw device I/O breaks write-cost accounting; route it through level/merge/core",
		}, {
			Rule: "tree-state", Pkg: "lsmssd/internal/core", Type: "Tree", Methods: []string{"Level", "Runs", "LevelImage", "Memtable"},
			Allowed: []string{
				"lsmssd/internal/core",
				"lsmssd/internal/invariant",   // runs as the writer's auditor hook
				"lsmssd/internal/experiments", // single-threaded harness
			},
			Why: "live level state mutates under a merge step's merge lock; acquire a snapshot with Tree.AcquireView instead",
		}, {
			Rule: "tree-state", Pkg: "lsmssd/internal/core", Type: "Tree", Methods: []string{"Put", "Delete", "ApplyBatch"},
			Allowed: []string{
				"lsmssd/internal/core",
				"lsmssd/internal/compaction", // Driver, the bare-tree executor
				"lsmssd",                     // the DB's write path logs before it applies
			},
			Why: "L0 changes under its own mutex alone, so only the write path, which logs first, may make them",
		}, {
			Rule: "compaction-step", Pkg: "lsmssd/internal/core", Type: "Tree", Methods: []string{"CompactionStep", "RunCascade"},
			Allowed: []string{
				"lsmssd/internal/core",       // Restore completes an interrupted cascade
				"lsmssd/internal/compaction", // the scheduler and the sync Driver
			},
			Why: "go through compaction.Scheduler (or compaction.Driver) so backpressure and error parking see every step",
		}, {
			Rule: "wal-frame", Pkg: "lsmssd/internal/wal", Type: "Log", Methods: []string{"Append", "Write", "Commit", "Sync", "GC", "Crash"},
			Allowed: []string{
				"lsmssd/internal/wal",
				"lsmssd", // the DB layer owns the log-then-apply commit protocol
			},
			Why: "frames are appended and garbage-collected only by the DB's commit protocol so acked writes stay recoverable",
		}},
		Obligations: []Obligation{
			{Rule: "view-refcount", Pkg: "lsmssd/internal/core", Type: "View", Method: "Release"},
			{Rule: "span-finish", Pkg: "lsmssd/internal/obs", Type: "Span", Method: "Finish"},
		},
		RetryAllowed: []string{
			"lsmssd/internal/retry",   // owns the bounded loop
			"lsmssd/internal/storage", // RetryDevice embeds the Retryer
		},

		Layering: map[string][]string{
			"lsmssd/internal/obs":      lowDeny, // obs stays a leaf: engine publishes into it, never the reverse
			"lsmssd/internal/wal":      lowDeny, // the log is a leaf: the DB layer feeds it, the engine never sees it
			"lsmssd/internal/faultdev": lowDeny, // wraps storage only; fault injection must not know engine structure
			"lsmssd/internal/block":    lowDeny,
			"lsmssd/internal/btree":    lowDeny,
			"lsmssd/internal/bloom":    lowDeny,
			"lsmssd/internal/memtable": lowDeny,
			"lsmssd/internal/storage":  lowDeny,
			"lsmssd/internal/cache":    lowDeny,
			"lsmssd/internal/policy": {
				"lsmssd/internal/core",
				"lsmssd/internal/level",
				"lsmssd/internal/merge",
			},
			"lsmssd/internal/level": {
				"lsmssd/internal/core",
				"lsmssd/internal/policy",
			},
			"lsmssd/internal/merge": {
				"lsmssd/internal/core",
				"lsmssd/internal/policy",
			},
		},

		LockCheckedPkgs:    []string{"lsmssd"},
		LockName:           "writerMu",
		LockAcquireHelpers: []string{"lockShards"},
		LockReleaseHelpers: []string{"unlockShards"},
		TreeMutateMethods:  []string{"Put", "Delete", "ApplyBatch", "MarkClosed"},
		// The checkpoint split: the capture reads the log's sequence, the
		// current view and the limbo mark as one instant, so it needs the
		// writer lock; the persist half is shared by callers that hold it
		// (Close, the post-recovery checkpoint) and the one that does not
		// (the checkpointer). The write path's log and apply steps run under
		// the locks of every shard the mutation touches.
		LockHeldFuncs:    []string{"captureLocked", "logLocked", "applyLocked"},
		LockFreeFuncs:    []string{"persist"},
		ShardFanoutFuncs: []string{"lockShards"},

		SentinelPkgs: []string{
			"lsmssd/internal/wal",
			"lsmssd/internal/storage",
		},

		GoShutdownPkgs: []string{
			"lsmssd/internal/compaction",
			"lsmssd/internal/obs",
			// The DB layer owns the checkpointer, the interval-sync
			// goroutine and the scrubber; background work added here must
			// be stoppable by DB.shutdown too, not spawned per checkpoint.
			"lsmssd",
		},
		GoDelegates: []string{"Serve"},
	}
}

// Run lints the packages matching patterns (relative to dir) with the
// given rules and returns the surviving findings sorted by position.
func Run(dir string, patterns []string, cfg Config, rules []Rule) ([]Finding, error) {
	pkgs, err := load(dir, patterns)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, p := range pkgs {
		ctx := &Context{Pkg: p, Cfg: cfg}
		var raw []Finding
		for _, r := range rules {
			raw = append(raw, r.Run(ctx)...)
		}
		out = append(out, applySuppressions(p, raw)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Rule < out[j].Rule
	})
	return out, nil
}

// directive is one parsed //lint:ignore comment.
type directive struct {
	rules []string
	line  int
	file  string
}

const ignorePrefix = "//lint:ignore"

// applySuppressions filters a package's findings through its
// //lint:ignore directives and reports malformed directives.
func applySuppressions(p *Package, findings []Finding) []Finding {
	var dirs []directive
	var out []Finding
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
				if len(fields) < 2 {
					out = append(out, Finding{
						Pos:  pos,
						Rule: "lint-ignore",
						Msg:  "lint:ignore directive needs a rule list and a reason: //lint:ignore rule[,rule] reason",
					})
					continue
				}
				dirs = append(dirs, directive{
					rules: strings.Split(fields[0], ","),
					line:  pos.Line,
					file:  pos.Filename,
				})
			}
		}
	}
	for _, f := range findings {
		if !suppressed(f, dirs) {
			out = append(out, f)
		}
	}
	return out
}

func suppressed(f Finding, dirs []directive) bool {
	for _, d := range dirs {
		if d.file != f.Pos.Filename {
			continue
		}
		// A directive covers its own line (end-of-line placement) and the
		// next line (preceding-comment placement).
		if f.Pos.Line != d.line && f.Pos.Line != d.line+1 {
			continue
		}
		for _, r := range d.rules {
			if r == f.Rule {
				return true
			}
		}
	}
	return false
}
