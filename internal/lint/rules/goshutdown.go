package rules

// goroutine-shutdown: every `go` statement in the long-running service
// packages (compaction, obs, the DB layer) must have a shutdown path. Accepted shapes,
// checked in the goroutine's body (a func literal, or the same-package
// function/method it starts):
//
//   - a receive (select case, expression, or assignment) from a channel
//     whose name looks like a shutdown signal (done/stop/quit/exit/close);
//   - ranging over a channel (the loop ends when the sender closes it);
//   - delegating lifecycle: the body's sole statement calls a
//     Config.GoDelegates method (Serve), whose own shutdown is the
//     callee's contract (http.Server.Serve returns on Close). Nothing else
//     is listed: a `go w.Run()` is checked through Run's body like any
//     other call.
//
// Anything else is a goroutine the engine cannot stop: it outlives Close,
// races teardown in tests, and leaks under repeated open/close cycles.

import (
	"go/ast"
	"go/token"
	"go/types"

	"lsmssd/internal/lint"
)

// funcDeclIndex maps declared function objects to their declarations so a
// `go x.run()` can be resolved to run's body.
func funcDeclIndex(p *lint.Package) map[types.Object]*ast.FuncDecl {
	idx := map[types.Object]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := p.Info.Defs[fd.Name]; obj != nil {
					idx[obj] = fd
				}
			}
		}
	}
	return idx
}

// bodyHasShutdownPath looks for a quit-channel receive or a channel range
// in body, excluding nested function literals.
func bodyHasShutdownPath(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	inspectShallow(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && hasQuitName(finalName(x.X)) {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isDelegateBody reports whether the body's sole statement hands
// lifecycle to a blocking call: `srv.Serve(ln)` or `_ = srv.Serve(ln)`.
func isDelegateBody(body *ast.BlockStmt, delegates []string) bool {
	if len(body.List) != 1 {
		return false
	}
	var call *ast.CallExpr
	switch s := body.List[0].(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			allBlank := true
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					allBlank = false
				}
			}
			if allBlank {
				call, _ = s.Rhs[0].(*ast.CallExpr)
			}
		}
	}
	return call != nil && inList(finalName(call.Fun), delegates)
}

var goroutineShutdown = lint.Rule{
	Name: "goroutine-shutdown",
	Doc:  "every go statement in service packages selects on a quit channel or delegates lifecycle",
	Run: func(ctx *lint.Context) []lint.Finding {
		if !inList(ctx.Pkg.Path, ctx.Cfg.GoShutdownPkgs) {
			return nil
		}
		idx := funcDeclIndex(ctx.Pkg)
		var out []lint.Finding
		for _, f := range ctx.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				ok = false
				switch fun := gs.Call.Fun.(type) {
				case *ast.FuncLit:
					ok = bodyHasShutdownPath(ctx.Pkg.Info, fun.Body) ||
						isDelegateBody(fun.Body, ctx.Cfg.GoDelegates)
				default:
					if inList(finalName(gs.Call.Fun), ctx.Cfg.GoDelegates) {
						ok = true // go srv.Serve(ln): lifecycle is the callee's
						break
					}
					if fn := calleeFunc(ctx.Pkg.Info, gs.Call); fn != nil {
						if fd, has := idx[fn]; has {
							ok = bodyHasShutdownPath(ctx.Pkg.Info, fd.Body) ||
								isDelegateBody(fd.Body, ctx.Cfg.GoDelegates)
						}
					}
				}
				if !ok {
					out = append(out, lint.Finding{
						Pos:  ctx.Pkg.Fset.Position(gs.Pos()),
						Rule: "goroutine-shutdown",
						Msg:  "goroutine has no shutdown path; select on a quit/done channel, range over a closable channel, or delegate to a blocking Serve",
					})
				}
				return true
			})
		}
		return out
	},
}
