// Package dataflow is the interprocedural half of ucplint: a
// module-wide static call graph over the type-checked packages the
// linter loads, plus per-function summaries and taint closures built on
// it. The intraprocedural rules in internal/lint answer "what does this
// statement do"; this package answers "what can this function reach" —
// which randomness sources a seed expression derives from, where a
// goroutine's writes can land, whether a hot function's callees
// allocate.
//
// Like the rest of ucplint it is deliberately stdlib-only (go/ast +
// go/types): no golang.org/x/tools, no SSA. The graph is therefore an
// approximation — static calls are resolved exactly, interface calls
// are expanded to every module type implementing the interface
// (class-hierarchy analysis), and calls through function values are not
// followed. For the determinism invariants ucplint enforces this
// over-approximation errs on the side of reporting, and every rule has
// a per-line escape hatch.
//
// Everything the package returns is deterministically ordered: nodes by
// (package path, source position), edges in source order, closures by
// breadth-first worklist over that order. Two runs over the same tree
// produce byte-identical findings — the linter holds itself to the same
// bar it enforces.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Source is one type-checked package contributed to the graph. It
// mirrors the fields of internal/lint's Package without importing it
// (lint imports dataflow, not the reverse).
type Source struct {
	Path  string
	Files []*ast.File
	Info  *types.Info
	Pkg   *types.Package
}

// Call is one resolved static call site.
type Call struct {
	// Callee is the invoked function. It may belong to the module (a
	// Node exists for it) or be external (stdlib); external callees
	// carry no body but are still classified by closures.
	Callee *types.Func
	// Pos is the call expression's position.
	Pos token.Pos
	// Iface marks an edge synthesized by class-hierarchy analysis: the
	// source called an interface method and Callee is one module
	// implementation of it.
	Iface bool
}

// Node is one module function with a body.
type Node struct {
	Fn      *types.Func
	Decl    *ast.FuncDecl
	PkgPath string
	Src     *Source
	// Calls lists the resolved static calls of the body (including
	// calls inside nested function literals, which are attributed to
	// the enclosing declaration) in source order, followed by CHA
	// edges.
	Calls []Call
}

// Graph is the module-wide call graph.
type Graph struct {
	Fset  *token.FileSet
	nodes map[*types.Func]*Node
	order []*Node // deterministic iteration order

	// callers is the reverse adjacency: callee -> calls into it, each
	// paired with its calling node.
	callers map[*types.Func][]edge

	// externals are callees with no Node (stdlib or bodyless), sorted.
	externals []*types.Func

	emitOnce       bool
	emits          map[*types.Func]EmitMask
	stateOnce      bool
	state          map[*types.Func]*StateSummary
	allocOnce      bool
	allocs         map[*types.Func][]Alloc
	allocReachOnce bool
	allocReach     map[*types.Func]*Taint
}

type edge struct {
	caller *Node
	call   Call
}

// Build constructs the graph over the given packages. All packages must
// share fset.
func Build(fset *token.FileSet, srcs []*Source) *Graph {
	g := &Graph{
		Fset:    fset,
		nodes:   make(map[*types.Func]*Node),
		callers: make(map[*types.Func][]edge),
	}
	// Pass 1: one node per function declaration with a body.
	for _, src := range srcs {
		for _, f := range src.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := src.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn] = &Node{Fn: fn, Decl: fd, PkgPath: src.Path, Src: src}
			}
		}
	}
	// Pass 2: resolve call sites.
	for _, src := range srcs {
		for _, f := range src.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := src.Info.Defs[fd.Name].(*types.Func)
				n := g.nodes[fn]
				if n == nil {
					continue
				}
				ast.Inspect(fd.Body, func(x ast.Node) bool {
					call, ok := x.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := calleeOf(src.Info, call); callee != nil {
						n.Calls = append(n.Calls, Call{Callee: callee, Pos: call.Pos()})
					}
					return true
				})
			}
		}
	}
	// Deterministic node order: package path, then position. Established
	// before interface expansion so CHA edges append in stable order.
	for _, n := range g.nodes {
		g.order = append(g.order, n)
	}
	sort.Slice(g.order, func(i, j int) bool {
		a, b := g.order[i], g.order[j]
		if a.PkgPath != b.PkgPath {
			return a.PkgPath < b.PkgPath
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})
	g.expandInterfaceCalls(srcs)
	// Reverse adjacency and the external callee set.
	seenExt := make(map[*types.Func]bool)
	for _, n := range g.order {
		for _, c := range n.Calls {
			g.callers[c.Callee] = append(g.callers[c.Callee], edge{caller: n, call: c})
			if g.nodes[c.Callee] == nil && !seenExt[c.Callee] {
				seenExt[c.Callee] = true
				g.externals = append(g.externals, c.Callee)
			}
		}
	}
	sort.Slice(g.externals, func(i, j int) bool {
		return funcKey(g.externals[i]) < funcKey(g.externals[j])
	})
	return g
}

// funcKey is a stable sort key for a function object.
func funcKey(fn *types.Func) string {
	return pkgPath(fn) + "\x00" + fn.FullName()
}

// pkgPath returns the import path of fn's package ("" for builtins).
func pkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// calleeOf resolves a call expression to its static callee, or nil for
// calls through function values, builtins, and type conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// expandInterfaceCalls adds class-hierarchy edges: a call to an
// interface method also targets every module method implementing it.
func (g *Graph) expandInterfaceCalls(srcs []*Source) {
	// Collect the module's named types once, in deterministic order.
	var named []*types.Named
	for _, src := range srcs {
		if src.Pkg == nil {
			continue
		}
		scope := src.Pkg.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if nt, ok := tn.Type().(*types.Named); ok {
				named = append(named, nt)
			}
		}
	}
	for _, n := range g.order {
		for _, c := range n.Calls {
			ifaceFn := c.Callee
			sig, ok := ifaceFn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				continue
			}
			if _, ok := sig.Recv().Type().Underlying().(*types.Interface); !ok {
				continue
			}
			iface := sig.Recv().Type().Underlying().(*types.Interface)
			for _, nt := range named {
				impl := implementation(nt, iface, ifaceFn.Name())
				if impl == nil || g.nodes[impl] == nil || impl == ifaceFn {
					continue
				}
				n.Calls = append(n.Calls, Call{Callee: impl, Pos: c.Pos, Iface: true})
			}
		}
	}
}

// implementation returns nt's (or *nt's) method named name if the type
// implements iface, else nil.
func implementation(nt *types.Named, iface *types.Interface, name string) *types.Func {
	var t types.Type = nt
	if !types.Implements(t, iface) {
		t = types.NewPointer(nt)
		if !types.Implements(t, iface) {
			return nil
		}
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nt.Obj().Pkg(), name)
	fn, _ := obj.(*types.Func)
	return fn
}

// Nodes returns every module function in deterministic order.
func (g *Graph) Nodes() []*Node { return g.order }

// NodeOf returns the node for fn, or nil when fn is external.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.nodes[fn] }

// Taint records why a function is in a closure, as a linked chain back
// to the base function that seeded it.
type Taint struct {
	Fn *types.Func
	// Why explains this link: the base reason for seed functions, or
	// "calls <next>" for propagated ones.
	Why string
	// Pos is the call site that propagated the taint (the base
	// function's taint has no position).
	Pos token.Pos
	// From is the next hop toward the base function (nil at the base).
	From *Taint
}

// Chain renders the taint path as "a → b → c (reason)" using positions
// from fset for module hops.
func (t *Taint) Chain(fset *token.FileSet) string {
	out := ""
	for cur := t; cur != nil; cur = cur.From {
		if out != "" {
			out += " → "
		}
		out += cur.Fn.FullName()
		if cur.From == nil {
			out += " (" + cur.Why + ")"
		}
	}
	return out
}

// ReachesSink computes the set of module functions that can reach — via
// any chain of static calls — a function for which base returns a
// reason. base is consulted for every callee, external or module. The
// result maps each tainted module function to a chain ending at the
// base function.
func (g *Graph) ReachesSink(base func(fn *types.Func) (string, bool)) map[*types.Func]*Taint {
	taint := make(map[*types.Func]*Taint)
	var queue []*types.Func
	seed := func(fn *types.Func) {
		if _, ok := taint[fn]; ok {
			return
		}
		if why, ok := base(fn); ok {
			taint[fn] = &Taint{Fn: fn, Why: why}
			queue = append(queue, fn)
		}
	}
	// Seed from externals first, then module nodes, in stable order.
	for _, fn := range g.externals {
		seed(fn)
	}
	for _, n := range g.order {
		seed(n.Fn)
	}
	// Propagate up the reverse edges breadth-first.
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, e := range g.callers[fn] {
			if _, ok := taint[e.caller.Fn]; ok {
				continue
			}
			taint[e.caller.Fn] = &Taint{
				Fn:   e.caller.Fn,
				Why:  "calls " + fn.FullName(),
				Pos:  e.call.Pos,
				From: taint[fn],
			}
			queue = append(queue, e.caller.Fn)
		}
	}
	return taint
}
