// Package rules implements every lsmlint rule on top of the
// internal/lint driver. This file holds the syntactic (single-node) rules:
//
//   - device-io, tree-state, compaction-step, wal-frame: the confinement
//     table (lint.Config.Confined). Each row names methods on a type that
//     only an allowlist of packages may call: raw device I/O (the paper's
//     write counts are the experimental metric), core.Tree's live level
//     state (it mutates under concurrent merges; everyone else reads an
//     acquired snapshot), the merge cascade's entry points (scheduling is
//     centralized so backpressure and error parking see every step), and
//     the WAL's mutating entry points (frames are appended before the tree
//     applies them and garbage-collected only after a checkpoint);
//   - global-rand: no math/rand package-level functions — all randomness
//     must flow from a seeded *rand.Rand so runs are reproducible;
//   - unchecked-err: no dropped error results from Close (any package) or
//     from this module's own APIs;
//   - layering: the leaf packages (block, btree, bloom, ...) must not
//     depend on the engine layers above them;
//   - obs-event: observability event values (obs.MergeEvent & friends) may
//     be constructed only by the instrumented engine packages — the
//     per-merge trace is experimental evidence, and a stray constructor
//     elsewhere would inject events no engine emission point produced.
//
// retry-bounded (retrybounded.go) and goroutine-shutdown (goshutdown.go)
// are syntactic too. The path-sensitive rules build on internal/lint/cfg +
// internal/lint/dataflow: lock-discipline and shard-lock-order share one
// lock analysis (lockdiscipline.go), view-refcount and span-finish one
// obligation analysis (obligation.go), and sentinel-error-flow is the
// backward error-liveness analysis (errflow.go).
package rules

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"lsmssd/internal/lint"
)

func inList(s string, list []string) bool {
	for _, x := range list {
		if s == x {
			return true
		}
	}
	return false
}

// inspectCalls walks every file in the package and hands each node of
// type matched by fn to it.
func eachFile(ctx *lint.Context, visit func(f *ast.File)) {
	for _, f := range ctx.Pkg.Files {
		visit(f)
	}
}

// restrictedMethodCall reports whether call invokes one of methods on the
// named type typeName (or any named type when typeName is "") declared in
// pkgPath, returning the selector and the receiver's type on success.
func restrictedMethodCall(ctx *lint.Context, call *ast.CallExpr, pkgPath, typeName string, methods []string) (*ast.SelectorExpr, *types.TypeName, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil, false
	}
	s := ctx.Pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal || !inList(s.Obj().Name(), methods) {
		return nil, nil, false
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != pkgPath {
		return nil, nil, false
	}
	if typeName != "" && named.Obj().Name() != typeName {
		return nil, nil, false
	}
	return sel, named.Obj(), true
}

// confined builds one of the confinement rules: calls matching a
// Config.Confined row named name, from a package outside its Allowed list.
func confined(name, doc string) lint.Rule {
	return lint.Rule{Name: name, Doc: doc, Run: func(ctx *lint.Context) []lint.Finding {
		var out []lint.Finding
		for _, c := range ctx.Cfg.Confined {
			if c.Rule != name || inList(ctx.Pkg.Path, c.Allowed) {
				continue
			}
			eachFile(ctx, func(f *ast.File) {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, typ, ok := restrictedMethodCall(ctx, call, c.Pkg, c.Type, c.Methods)
					if !ok {
						return true
					}
					out = append(out, lint.Finding{
						Pos:  ctx.Pkg.Fset.Position(sel.Sel.Pos()),
						Rule: name,
						Msg: fmt.Sprintf("%s.%s.%s called outside the packages it is confined to; %s",
							typ.Pkg().Name(), typ.Name(), sel.Sel.Name, c.Why),
					})
					return true
				})
			})
		}
		return out
	}}
}

var (
	deviceIO       = confined("device-io", "storage.Device.Read/Write confined to the block-I/O accounting layers")
	treeState      = confined("tree-state", "live core.Tree level state readable only by writer-side packages")
	compactionStep = confined("compaction-step", "merge cascades driven only from the compaction scheduling layer")
	walFrame       = confined("wal-frame", "wal.Log mutations confined to the durability layer")
)

var obsEvent = lint.Rule{
	Name: "obs-event",
	Doc:  "obs event values constructed only at instrumented emission points",
	Run: func(ctx *lint.Context) []lint.Finding {
		if ctx.Cfg.ObsPkg == "" || inList(ctx.Pkg.Path, ctx.Cfg.ObsAllowed) {
			return nil
		}
		var out []lint.Finding
		eachFile(ctx, func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				tv, ok := ctx.Pkg.Info.Types[lit]
				if !ok {
					return true
				}
				named, ok := tv.Type.(*types.Named)
				if !ok {
					return true
				}
				obj := named.Obj()
				if obj.Pkg() == nil || obj.Pkg().Path() != ctx.Cfg.ObsPkg || !strings.HasSuffix(obj.Name(), "Event") {
					return true
				}
				out = append(out, lint.Finding{
					Pos:  ctx.Pkg.Fset.Position(lit.Pos()),
					Rule: "obs-event",
					Msg: fmt.Sprintf("obs.%s constructed outside the instrumented engine packages; events must originate at the engine's emission points so traces stay trustworthy",
						obj.Name()),
				})
				return true
			})
		})
		return out
	},
}

var globalRand = lint.Rule{
	Name: "global-rand",
	Doc:  "no math/rand global source; all randomness derives from Options.Seed",
	Run: func(ctx *lint.Context) []lint.Finding {
		var out []lint.Finding
		eachFile(ctx, func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := ctx.Pkg.Info.Uses[id].(*types.PkgName)
				if !ok {
					return true
				}
				path := pn.Imported().Path()
				if path != "math/rand" && path != "math/rand/v2" {
					return true
				}
				fn, ok := ctx.Pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || inList(fn.Name(), ctx.Cfg.RandAllowed) {
					return true
				}
				out = append(out, lint.Finding{
					Pos:  ctx.Pkg.Fset.Position(sel.Sel.Pos()),
					Rule: "global-rand",
					Msg: fmt.Sprintf("%s.%s uses the global random source; derive a *rand.Rand from Options.Seed instead",
						path, fn.Name()),
				})
				return true
			})
		})
		return out
	},
}

var uncheckedErr = lint.Rule{
	Name: "unchecked-err",
	Doc:  "no dropped error results from Close or module APIs",
	Run: func(ctx *lint.Context) []lint.Finding {
		var out []lint.Finding
		eachFile(ctx, func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				es, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := es.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				var obj types.Object
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					obj = ctx.Pkg.Info.Uses[fun.Sel]
				case *ast.Ident:
					obj = ctx.Pkg.Info.Uses[fun]
				default:
					return true
				}
				fn, ok := obj.(*types.Func)
				if !ok {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || !returnsError(sig) {
					return true
				}
				ours := fn.Pkg() != nil && (fn.Pkg().Path() == ctx.Cfg.ModulePrefix ||
					strings.HasPrefix(fn.Pkg().Path(), ctx.Cfg.ModulePrefix+"/"))
				if fn.Name() != "Close" && !ours {
					return true
				}
				out = append(out, lint.Finding{
					Pos:  ctx.Pkg.Fset.Position(call.Pos()),
					Rule: "unchecked-err",
					Msg:  fmt.Sprintf("result of %s contains an error that is dropped; handle it or fold it in with errors.Join", fn.Name()),
				})
				return true
			})
		})
		return out
	},
}

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}

var layering = lint.Rule{
	Name: "layering",
	Doc:  "leaf packages must not depend on engine layers above them",
	Run: func(ctx *lint.Context) []lint.Finding {
		deny := ctx.Cfg.Layering[ctx.Pkg.Path]
		if len(deny) == 0 {
			return nil
		}
		var out []lint.Finding
		for _, f := range ctx.Pkg.Files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if inList(path, deny) {
					out = append(out, lint.Finding{
						Pos:  ctx.Pkg.Fset.Position(imp.Pos()),
						Rule: "layering",
						Msg:  fmt.Sprintf("%s must not import %s (layering)", ctx.Pkg.Path, path),
					})
					continue
				}
				for _, d := range ctx.Pkg.DepsOf(path) {
					if inList(d, deny) {
						out = append(out, lint.Finding{
							Pos:  ctx.Pkg.Fset.Position(imp.Pos()),
							Rule: "layering",
							Msg:  fmt.Sprintf("%s must not depend on %s (transitively via %s)", ctx.Pkg.Path, d, path),
						})
						break
					}
				}
			}
		}
		return out
	},
}
