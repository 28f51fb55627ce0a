package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// newTraceOpenAnalyzer keeps sweep paths on the shared-arena plan.
// trace.ReadAny decodes a whole trace into a fresh []isa.Inst
// (48 bytes/inst) on every call — exactly the per-job
// redundancy the decode-once trace.Arena exists to eliminate. Sweep
// code must go through the arena entry points (trace.LoadArena, or
// runq's Pool.FileArena which shares one arena per batch); the raw
// decoder is reserved for the trace codec itself and for cmd/tracegen's
// generate/inspect tooling.
func newTraceOpenAnalyzer() *Analyzer {
	const rule = "traceopen"
	forbidden := map[string]bool{"ReadAny": true}
	allowedPkg := func(path string) bool {
		return strings.HasSuffix(path, "internal/trace") ||
			strings.HasSuffix(path, "cmd/tracegen")
	}
	return &Analyzer{
		Name: rule,
		Doc:  "forbid direct trace decoding (trace.ReadAny) outside internal/trace and cmd/tracegen; sweep paths share a decoded arena",
		CheckPackage: func(p *Package, r *Reporter) {
			if allowedPkg(p.Path) {
				return
			}
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !forbidden[sel.Sel.Name] {
						return true
					}
					fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
					if !ok || fn.Type().(*types.Signature).Recv() != nil {
						return true
					}
					if !strings.HasSuffix(pkgPathOf(fn), "internal/trace") {
						return true
					}
					r.Report(p, call.Pos(), rule,
						"direct trace decode via trace.%s is forbidden outside internal/trace and cmd/tracegen: route sweep code through a shared trace.Arena (LoadArena / Pool.FileArena)", sel.Sel.Name)
					return true
				})
			}
		},
	}
}
