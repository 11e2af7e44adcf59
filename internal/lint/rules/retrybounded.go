package rules

// retry-bounded: a loop that mixes storage.Device I/O with time.Sleep is
// a hand-rolled retry loop, and hand-rolled retry loops are how unbounded
// stalls enter the engine — no attempt cap, no wall-clock deadline, no
// jitter, and no exhaustion accounting feeding the shard health state
// machine. All device-error retrying must go through internal/retry
// (retry.New(Policy).Do), which caps the loop twice and reports
// exhaustion; the packages in Config.RetryAllowed (retry itself and the
// storage wrapper that embeds it) are the only sanctioned homes for the
// raw loop shape.
//
// Detection is syntactic but type-informed: a for/range statement whose
// body (excluding nested function literals, which are their own analysis
// units) contains both a call matching the device-io confinement row and
// a call to time.Sleep. Either half alone is fine —
// polling loops sleep without touching the device, and scan loops read
// without sleeping; only the combination is the unbounded-retry shape.

import (
	"fmt"
	"go/ast"

	"lsmssd/internal/lint"
)

var retryBounded = lint.Rule{
	Name: "retry-bounded",
	Doc:  "device-I/O retry loops must use internal/retry's bounded backoff",
	Run: func(ctx *lint.Context) []lint.Finding {
		dev, ok := deviceRow(ctx.Cfg)
		if !ok || inList(ctx.Pkg.Path, ctx.Cfg.RetryAllowed) {
			return nil
		}
		var out []lint.Finding
		eachFile(ctx, func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch loop := n.(type) {
				case *ast.ForStmt:
					body = loop.Body
				case *ast.RangeStmt:
					body = loop.Body
				default:
					return true
				}
				if io, slept := loopCallsDeviceAndSleep(ctx, dev, body); io && slept {
					out = append(out, lint.Finding{
						Pos:  ctx.Pkg.Fset.Position(n.Pos()),
						Rule: "retry-bounded",
						Msg: fmt.Sprintf("loop mixes %s device I/O with time.Sleep — an unbounded retry; use retry.New(Policy).Do so attempts, deadline, and exhaustion accounting stay bounded",
							dev.Pkg),
					})
				}
				return true
			})
		})
		return out
	},
}

// loopCallsDeviceAndSleep scans a loop body — without descending into
// function literals — for a restricted Device method call and a
// time.Sleep call. Nested loops are scanned too: an inner scan loop's
// device read still makes the sleeping outer loop a retry loop.
func loopCallsDeviceAndSleep(ctx *lint.Context, dev lint.Confinement, body *ast.BlockStmt) (io, slept bool) {
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, _, ok := restrictedMethodCall(ctx, call, dev.Pkg, dev.Type, dev.Methods); ok {
			io = true
			return true
		}
		if fn := calleeFunc(ctx.Pkg.Info, call); fn != nil &&
			fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
			slept = true
		}
		return true
	})
	return io, slept
}

// deviceRow returns the device-io confinement row, whose methods are the
// device I/O a retry loop wraps.
func deviceRow(cfg lint.Config) (lint.Confinement, bool) {
	for _, c := range cfg.Confined {
		if c.Rule == "device-io" {
			return c, true
		}
	}
	return lint.Confinement{}, false
}
