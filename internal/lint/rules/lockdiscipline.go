package rules

// lock-discipline and shard-lock-order: one lock analysis over the DB
// layer (Config.LockCheckedPkgs).
//
// lock-discipline: every core.Tree mutation must be dominated by a
// writerMu.Lock() (directly or via a lock-acquire helper like lockedTree),
// and an acquired lock must be released on every exit path (an explicit
// Unlock or release helper, a deferred one, or the unlock func escaping to
// the caller, as lockedTree itself does). Functions whose names end in "Locked" follow
// the caller-holds-lock convention: their analysis starts locked and skips
// the exit check. Calls to the ones listed in LockHeldFuncs are checked
// like tree mutations, so the contract is verified at the call site too.
// Functions in LockFreeFuncs run under either regime and must not acquire
// the lock.
//
// shard-lock-order: no writer lock may be taken (Lock or a helper) while
// one may already be held — two goroutines nesting shard locks in
// different orders is a deadlock, and the per-shard design never needs
// it. The only exception is the fan-out helpers (Config.ShardFanoutFuncs,
// i.e. lockShards), which skip the state machine and must instead take
// every lock inside a `range` over the shard slice: ranging visits
// ascending indices, so every multi-shard acquisition follows one global
// order.
//
// The analysis is a forward may-analysis over a four-state machine
// tracked as a bitmask (a bit per state a path may be in):
//
//	unlocked --Lock/helper--> locked --Unlock--> unlocked
//	locked --defer Unlock--> deferred (terminal: released at return)
//	any --unlock value escapes--> escaped (terminal: caller releases)
//
// A mutation is flagged when the unlocked bit is set at the call (some
// path reaches it without the lock); a Lock is a nesting when any other
// bit is set (a deferred unlock runs only at return, so the lock is still
// held); a function is flagged when the plain locked bit survives to Exit
// (some path returns without releasing), unless it already has a nesting
// finding — the one-lock exit check does not describe a function that
// holds two.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"lsmssd/internal/lint"
	"lsmssd/internal/lint/cfg"
	"lsmssd/internal/lint/dataflow"
)

const (
	lsUnlocked uint8 = 1 << iota
	lsLocked
	lsDeferred
	lsEscaped
)

// lockAnalysis implements dataflow.Analysis; the fact is the state
// bitmask. report (lock-discipline) and nesting (shard-lock-order) are nil
// during the fixpoint and set during the replay pass that emits findings
// from the stable facts.
type lockAnalysis struct {
	ctx     *lint.Context
	tokens  map[types.Object]bool // unlock funcs bound from acquire helpers
	report  func(pos token.Pos, msg string)
	nesting func(pos token.Pos, msg string)

	fnName   string // the function under analysis
	lockFree bool   // it is one of Cfg.LockFreeFuncs
	entry    uint8  // lsLocked for the caller-holds-lock convention
}

func (a *lockAnalysis) Boundary() dataflow.Fact { return a.entry }
func (a *lockAnalysis) Meet(x, y dataflow.Fact) dataflow.Fact {
	return x.(uint8) | y.(uint8)
}
func (a *lockAnalysis) Equal(x, y dataflow.Fact) bool { return x.(uint8) == y.(uint8) }
func (a *lockAnalysis) FilterEdge(from *cfg.Block, e cfg.Edge, f dataflow.Fact) dataflow.Fact {
	return f
}

func (a *lockAnalysis) Transfer(b *cfg.Block, in dataflow.Fact) dataflow.Fact {
	mask := in.(uint8)
	for _, n := range b.Nodes {
		mask = a.node(n, mask)
	}
	return mask
}

// mapStates applies a per-state transition to every state in the mask.
func mapStates(mask uint8, f func(uint8) uint8) uint8 {
	var out uint8
	for bit := uint8(1); bit <= lsEscaped; bit <<= 1 {
		if mask&bit != 0 {
			out |= f(bit)
		}
	}
	return out
}

func onLock(s uint8) uint8 {
	if s == lsUnlocked || s == lsLocked {
		return lsLocked
	}
	return s
}

func onUnlock(s uint8) uint8 {
	if s == lsLocked {
		return lsUnlocked
	}
	return s
}

func onDeferUnlock(s uint8) uint8 {
	if s == lsLocked || s == lsUnlocked {
		return lsDeferred
	}
	return s
}

// node applies one statement's lock operations to the mask, emitting
// findings through a.report when set.
func (a *lockAnalysis) node(n ast.Node, mask uint8) uint8 {
	cfgc := a.ctx.Cfg

	// defer mu.Unlock() / defer unlock(): the release is guaranteed at
	// every subsequent exit.
	if ds, ok := n.(*ast.DeferStmt); ok {
		if a.isUnlockCall(ds.Call) || a.isTokenCall(ds.Call) || a.isReleaseCall(ds.Call) {
			return mapStates(mask, onDeferUnlock)
		}
	}

	// funExprs marks expressions appearing as a call's Fun, so a bare
	// `mu.Unlock` or unlock-token mention elsewhere reads as an escape.
	funExprs := map[ast.Expr]bool{}
	boundIdents := map[*ast.Ident]bool{}
	inspectShallow(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			funExprs[x.Fun] = true
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					boundIdents[id] = true
				}
			}
		}
		return true
	})

	escaped := false
	inspectShallow(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			switch {
			case a.isLockCall(x) || a.isHelperCall(x):
				if a.lockFree && a.report != nil {
					a.report(x.Pos(), fmt.Sprintf(
						"%s is called both with and without %s held, so it must not acquire it",
						a.fnName, cfgc.LockName))
				}
				if mask&^lsUnlocked != 0 && a.report != nil {
					a.nesting(x.Pos(), fmt.Sprintf(
						"%s takes a writer lock while one may already be held; multi-shard acquisition is reserved for %s",
						types.ExprString(x.Fun), strings.Join(cfgc.ShardFanoutFuncs, ", ")))
				}
				mask = mapStates(mask, onLock)
			case a.isUnlockCall(x) || a.isTokenCall(x) || a.isReleaseCall(x):
				mask = mapStates(mask, onUnlock)
			case inList(finalName(x.Fun), cfgc.LockHeldFuncs):
				if mask&lsUnlocked != 0 && a.report != nil {
					a.report(x.Pos(), fmt.Sprintf(
						"%s requires %s but may be called without it on some path",
						finalName(x.Fun), cfgc.LockName))
				}
			default:
				if sel, _, ok := restrictedMethodCall(a.ctx, x, cfgc.TreePkg, "Tree", cfgc.TreeMutateMethods); ok {
					if mask&lsUnlocked != 0 && a.report != nil {
						a.report(sel.Sel.Pos(), fmt.Sprintf(
							"core.Tree.%s may run without %s held on some path; acquire the writer lock before mutating",
							sel.Sel.Name, cfgc.LockName))
					}
				}
			}
		case *ast.SelectorExpr:
			// `mu.Unlock` used as a value (returned, stored): the release
			// obligation transfers to whoever receives it.
			if !funExprs[x] && x.Sel.Name == "Unlock" && finalName(x.X) == cfgc.LockName {
				escaped = true
			}
		case *ast.Ident:
			// Unlock token mentioned outside a call position and not as an
			// assignment target: it escapes, the receiver releases.
			if obj := a.ctx.Pkg.Info.Uses[x]; obj != nil && a.tokens[obj] &&
				!boundIdents[x] && !funExprs[x] {
				escaped = true
			}
		}
		return true
	})
	if escaped {
		return lsEscaped
	}
	return mask
}

func (a *lockAnalysis) isLockCall(call *ast.CallExpr) bool {
	return a.isMuMethod(call, "Lock")
}
func (a *lockAnalysis) isUnlockCall(call *ast.CallExpr) bool {
	return a.isMuMethod(call, "Unlock")
}

func (a *lockAnalysis) isMuMethod(call *ast.CallExpr, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	return finalName(sel.X) == a.ctx.Cfg.LockName
}

func (a *lockAnalysis) isHelperCall(call *ast.CallExpr) bool {
	return inList(finalName(call.Fun), a.ctx.Cfg.LockAcquireHelpers)
}

func (a *lockAnalysis) isReleaseCall(call *ast.CallExpr) bool {
	return inList(finalName(call.Fun), a.ctx.Cfg.LockReleaseHelpers)
}

func (a *lockAnalysis) isTokenCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	obj := a.ctx.Pkg.Info.Uses[id]
	return obj != nil && a.tokens[obj]
}

// lockTokens pre-scans a body for `x, unlock := helper()` bindings and
// returns the function-typed objects that stand for the pending unlock.
func lockTokens(ctx *lint.Context, body *ast.BlockStmt) map[types.Object]bool {
	tokens := map[types.Object]bool{}
	helperNames := ctx.Cfg.LockAcquireHelpers
	inspectShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !inList(finalName(call.Fun), helperNames) {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := identObj(ctx.Pkg.Info, id)
			if obj == nil {
				continue
			}
			if _, isSig := obj.Type().Underlying().(*types.Signature); isSig {
				tokens[obj] = true
			}
		}
		return true
	})
	return tokens
}

// fanoutFindings checks a sanctioned fan-out helper: every writerMu.Lock
// it takes must sit inside a `range` statement over the shard slice, so
// acquisition order is the slice order (ascending).
func fanoutFindings(ctx *lint.Context, fn fnBody, report func(rule string, pos token.Pos, msg string)) {
	var ranges []*ast.RangeStmt
	inspectShallow(fn.body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok && finalName(rs.X) == "shards" {
			ranges = append(ranges, rs)
		}
		return true
	})
	la := &lockAnalysis{ctx: ctx}
	inspectShallow(fn.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !la.isLockCall(call) {
			return true
		}
		for _, rs := range ranges {
			if call.Pos() >= rs.Body.Pos() && call.Pos() < rs.Body.End() {
				return true
			}
		}
		report("shard-lock-order", call.Pos(), fmt.Sprintf(
			"fan-out helper %s must take shard locks by ranging over the shard slice (range order is ascending)", fn.name))
		return true
	})
}

// lockFindings runs the lock analysis over every function of a checked
// package and keeps the findings of one of its two rules.
func lockFindings(ctx *lint.Context, rule string) []lint.Finding {
	if ctx.Cfg.LockName == "" || !inList(ctx.Pkg.Path, ctx.Cfg.LockCheckedPkgs) {
		return nil
	}
	var out []lint.Finding
	report := func(r string, pos token.Pos, msg string) {
		if r == rule {
			out = append(out, lint.Finding{Pos: ctx.Pkg.Fset.Position(pos), Rule: r, Msg: msg})
		}
	}
	for _, fn := range functions(ctx.Pkg) {
		if inList(fn.name, ctx.Cfg.ShardFanoutFuncs) {
			fanoutFindings(ctx, fn, report)
			continue
		}
		callerHolds := strings.HasSuffix(fn.name, "Locked")
		g := cfg.Build(fn.body)
		a := &lockAnalysis{ctx: ctx, tokens: lockTokens(ctx, fn.body), entry: lsUnlocked,
			fnName: fn.name, lockFree: inList(fn.name, ctx.Cfg.LockFreeFuncs)}
		if callerHolds {
			a.entry = lsLocked
		}
		res := dataflow.Forward(g, a)

		// Replay with the stable in-facts to emit findings exactly once per
		// site.
		nested := false
		a.report = func(pos token.Pos, msg string) { report("lock-discipline", pos, msg) }
		a.nesting = func(pos token.Pos, msg string) {
			nested = true
			report("shard-lock-order", pos, msg)
		}
		for _, b := range g.Blocks {
			if in, ok := res.In[b]; ok {
				a.Transfer(b, in)
			}
		}
		if exitIn, ok := res.In[g.Exit]; ok && exitIn.(uint8)&lsLocked != 0 && !callerHolds && !nested {
			report("lock-discipline", fn.pos, fmt.Sprintf(
				"%s may still be held at return on some path; unlock on every exit or defer the unlock", ctx.Cfg.LockName))
		}
	}
	return out
}

var (
	lockDiscipline = lint.Rule{
		Name: "lock-discipline",
		Doc:  "core.Tree mutations dominated by writerMu.Lock with release on all exit paths",
		Run:  func(ctx *lint.Context) []lint.Finding { return lockFindings(ctx, "lock-discipline") },
	}
	shardLockOrder = lint.Rule{
		Name: "shard-lock-order",
		Doc:  "no nested shard writer locks outside the sanctioned ascending fan-out helpers",
		Run:  func(ctx *lint.Context) []lint.Finding { return lockFindings(ctx, "shard-lock-order") },
	}
)
