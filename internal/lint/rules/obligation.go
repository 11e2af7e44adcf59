package rules

// view-refcount and span-finish: one obligation analysis over the
// Config.Obligations table. A call whose first result is *P.T (a row's Pkg
// and Type) starts an obligation on the variable it is assigned to; only
// v.M() for the row's Method — direct, deferred, or inside a deferred
// closure — or the value escaping the function discharges it. An escape
// is any mention other than a method-call receiver or a nil comparison:
// returned, passed as an argument, stored in a composite literal or
// field, captured by a closure, or reassigned. The receiver of an escaped
// value owns the discharge.
//
//   - view-refcount (core, View, Release) and (core, Pin, Unpin): an
//     unreleased view or a pin never dropped holds its snapshot's
//     deferred frees forever.
//   - span-finish (obs, Span, Finish): an unfinished span never publishes
//     its event, never feeds the phase histograms, and leaks its pooled
//     buffer.
//
// The analysis is forward and edge-sensitive. An acquisition paired with
// an error result starts "conditional": the `err != nil` branch kills the
// obligation (the acquire failed, nothing is held) and the `err == nil`
// branch makes it unconditional. The `v == nil` branch kills it too (a nil
// span was never started). A value still owed at Exit is a leak on some
// path, and a result discarded with `_` or a bare call statement is
// flagged at the call.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"

	"lsmssd/internal/lint"
	"lsmssd/internal/lint/cfg"
	"lsmssd/internal/lint/dataflow"
)

type owed struct {
	cond bool         // acquired alongside an error not yet checked
	err  types.Object // the paired error variable, when cond
	pos  token.Pos    // acquisition site, for reporting
}

// owedFact maps a variable to its outstanding obligation. Facts are
// immutable: every transfer copies.
type owedFact map[types.Object]owed

func (f owedFact) clone() owedFact {
	out := make(owedFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

type obligationAnalysis struct {
	ctx    *lint.Context
	row    lint.Obligation
	report func(pos token.Pos, msg string)
}

func (a *obligationAnalysis) Boundary() dataflow.Fact { return owedFact{} }

func (a *obligationAnalysis) Meet(x, y dataflow.Fact) dataflow.Fact {
	out := x.(owedFact).clone()
	for k, v := range y.(owedFact) {
		if cur, ok := out[k]; ok {
			// Unconditional (err already checked) is the more dangerous state.
			cur.cond = cur.cond && v.cond
			v = cur
		}
		out[k] = v
	}
	return out
}

func (a *obligationAnalysis) Equal(x, y dataflow.Fact) bool {
	fx, fy := x.(owedFact), y.(owedFact)
	if len(fx) != len(fy) {
		return false
	}
	for k, v := range fx {
		if w, ok := fy[k]; !ok || v.cond != w.cond {
			return false
		}
	}
	return true
}

// FilterEdge resolves obligations along nil-check branches: the paired
// error's and the value's own.
func (a *obligationAnalysis) FilterEdge(from *cfg.Block, e cfg.Edge, f dataflow.Fact) dataflow.Fact {
	if e.Cond == nil {
		return f
	}
	obj, neq, ok := nilCheck(a.ctx.Pkg.Info, e.Cond)
	if !ok {
		return f
	}
	isNil := neq == (e.Kind == cfg.False) // the branch where obj == nil
	fact := f.(owedFact)
	var out owedFact
	for k, v := range fact {
		kill := k == obj && isNil
		settle := v.cond && v.err == obj
		if !kill && !settle {
			continue
		}
		if out == nil {
			out = fact.clone()
		}
		switch {
		case kill || !isNil: // nil value, or the acquire failed: nothing held
			delete(out, k)
		default: // the acquire succeeded: the obligation is live
			v.cond = false
			out[k] = v
		}
	}
	if out == nil {
		return f
	}
	return out
}

func (a *obligationAnalysis) Transfer(b *cfg.Block, in dataflow.Fact) dataflow.Fact {
	f := in.(owedFact).clone()
	for _, n := range b.Nodes {
		a.node(n, f)
	}
	return f
}

// isAcquire reports whether call's first result is *row.Pkg.row.Type.
func (a *obligationAnalysis) isAcquire(call *ast.CallExpr) bool {
	tv, ok := a.ctx.Pkg.Info.Types[call]
	if !ok {
		return false
	}
	first := tv.Type
	if tup, ok := first.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		first = tup.At(0).Type()
	}
	ptr, ok := first.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == a.row.Type &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == a.row.Pkg
}

func (a *obligationAnalysis) discarded(call *ast.CallExpr) {
	if a.report != nil {
		a.report(call.Pos(), fmt.Sprintf("%s result is discarded; it must reach %s", owedType(a.row), a.row.Method))
	}
}

// owedType renders a row's type as Go source names it ("*core.View").
func owedType(row lint.Obligation) string { return "*" + path.Base(row.Pkg) + "." + row.Type }

func (a *obligationAnalysis) node(n ast.Node, f owedFact) {
	info := a.ctx.Pkg.Info
	switch n := n.(type) {
	case *ast.AssignStmt: // v, err := acquire() or v := acquire()
		call, ok := n.Rhs[0].(*ast.CallExpr)
		if !ok || len(n.Rhs) != 1 || !a.isAcquire(call) {
			break
		}
		a.scanUses(n, f) // call args may mention tracked values
		vid, ok := n.Lhs[0].(*ast.Ident)
		if !ok {
			return
		}
		if vid.Name == "_" {
			a.discarded(call)
			return
		}
		obj := identObj(info, vid)
		if obj == nil {
			return
		}
		st := owed{pos: call.Pos()}
		if len(n.Lhs) == 2 {
			if eid, ok := n.Lhs[1].(*ast.Ident); ok && eid.Name != "_" {
				st.cond, st.err = true, identObj(info, eid)
			}
		}
		f[obj] = st
		return
	case *ast.ExprStmt: // a bare acquire() drops the result
		if call, ok := n.X.(*ast.CallExpr); ok && a.isAcquire(call) {
			a.discarded(call)
		}
	case *ast.DeferStmt: // defer v.M()
		if obj := a.dischargeTarget(n.Call); obj != nil {
			delete(f, obj)
			return
		}
	}
	a.scanUses(n, f)
}

// dischargeTarget returns the variable when call is v.M() for the row's
// method.
func (a *obligationAnalysis) dischargeTarget(call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != a.row.Method {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	return a.ctx.Pkg.Info.Uses[id]
}

// scanUses walks a node, closures included: a discharging call ends the
// obligation, method-call receivers and nil-comparison operands keep it
// (the comparison is FilterEdge's business), and any other mention of a
// tracked variable ends it as an escape — responsibility moves with the
// value.
func (a *obligationAnalysis) scanUses(n ast.Node, f owedFact) {
	info := a.ctx.Pkg.Info
	kept := map[*ast.Ident]bool{}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					kept[id] = true
				}
			}
		case *ast.BinaryExpr:
			if _, _, ok := nilCheck(info, x); ok {
				for _, e := range []ast.Expr{x.X, x.Y} {
					if id, ok := e.(*ast.Ident); ok {
						kept[id] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			if obj := a.dischargeTarget(x); obj != nil {
				delete(f, obj)
			}
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil && !kept[x] {
				delete(f, obj) // escape: the receiver owns the discharge
			}
		}
		return true
	})
}

// obligation builds the rule for the Config.Obligations rows named name.
func obligation(name, doc string) lint.Rule {
	return lint.Rule{Name: name, Doc: doc, Run: func(ctx *lint.Context) []lint.Finding {
		var out []lint.Finding
		seen := map[token.Pos]bool{}
		report := func(pos token.Pos, msg string) {
			if !seen[pos] {
				seen[pos] = true
				out = append(out, lint.Finding{Pos: ctx.Pkg.Fset.Position(pos), Rule: name, Msg: msg})
			}
		}
		for _, row := range ctx.Cfg.Obligations {
			if row.Rule != name {
				continue
			}
			for _, fn := range functions(ctx.Pkg) {
				g := cfg.Build(fn.body)
				a := &obligationAnalysis{ctx: ctx, row: row}
				res := dataflow.Forward(g, a)

				// Replay with the stable in-facts to emit discard findings.
				a.report = report
				for _, b := range g.Blocks {
					if in, ok := res.In[b]; ok {
						a.Transfer(b, in)
					}
				}
				if exitIn, ok := res.In[g.Exit]; ok {
					for _, st := range exitIn.(owedFact) {
						report(st.pos, fmt.Sprintf("%s acquired here may not reach %s on every path; call it (or defer it) before returning",
							owedType(row), row.Method))
					}
				}
			}
		}
		return out
	}}
}

var (
	viewRefcount = obligation("view-refcount", "every AcquireView reaches Release, and every PinView Unpin (or escapes), on all paths")
	spanFinish   = obligation("span-finish", "every span from Tracer.Start reaches Finish (or escapes) on all paths")
)
