package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseSrc type-checks one synthetic package and wraps it as a Source.
func parseSrc(t *testing.T, fset *token.FileSet, path, src string) *Source {
	t.Helper()
	f, err := parser.ParseFile(fset, strings.ReplaceAll(path, "/", "_")+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", path, err)
	}
	return &Source{Path: path, Files: []*ast.File{f}, Info: info, Pkg: pkg}
}

const graphSrc = `package p

import "time"

func leaf() int64 { return time.Now().UnixNano() }

func mid() int64 { return leaf() }

func top() int64 { return mid() }

func clean() int { return 42 }

type emitter interface{ Emit() }

type impl struct{}

func (impl) Emit() {}

func callIface(e emitter) { e.Emit() }
`

func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	return Build(fset, []*Source{parseSrc(t, fset, "test/p", graphSrc)})
}

func TestReachesSinkFollowsChains(t *testing.T) {
	g := buildTestGraph(t)
	tainted := g.ReachesSink(func(fn *types.Func) (string, bool) {
		if fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Now" {
			return "wall clock", true
		}
		return "", false
	})
	byName := map[string]*Taint{}
	for fn, taint := range tainted {
		byName[fn.Name()] = taint
	}
	for _, want := range []string{"leaf", "mid", "top"} {
		if byName[want] == nil {
			t.Errorf("%s should be tainted, is not", want)
		}
	}
	if byName["clean"] != nil {
		t.Errorf("clean should not be tainted: %s", byName["clean"].Chain(g.Fset))
	}
	if taint := byName["top"]; taint != nil {
		chain := taint.Chain(g.Fset)
		for _, hop := range []string{"top", "mid", "leaf", "wall clock"} {
			if !strings.Contains(chain, hop) {
				t.Errorf("chain %q missing hop %q", chain, hop)
			}
		}
	}
}

// TestInterfaceCallsExpandToImplementations pins the CHA edge: an
// interface-method call reaches every module implementation, so a sink
// inside impl.Emit taints callIface through the interface call.
func TestInterfaceCallsExpandToImplementations(t *testing.T) {
	g := buildTestGraph(t)
	tainted := g.ReachesSink(func(fn *types.Func) (string, bool) {
		if fn.Name() == "Emit" && fn.Pkg() != nil && fn.Pkg().Path() == "test/p" {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if _, iface := sig.Recv().Type().Underlying().(*types.Interface); !iface {
					return "impl sink", true
				}
			}
		}
		return "", false
	})
	for fn, taint := range tainted {
		if fn.Name() == "callIface" {
			if chain := taint.Chain(g.Fset); !strings.Contains(chain, "impl sink") {
				t.Errorf("callIface chain %q does not end at the impl.Emit sink", chain)
			}
			return
		}
	}
	t.Error("CHA edge missing: callIface does not reach the impl.Emit sink")
}

// TestBuildIsDeterministic guards the linter's own reproducibility: two
// builds over the same sources must present identical node and call
// orders.
func TestBuildIsDeterministic(t *testing.T) {
	shape := func() string {
		g := buildTestGraph(t)
		var sb strings.Builder
		for _, n := range g.Nodes() {
			sb.WriteString(n.Fn.FullName())
			for _, c := range n.Calls {
				sb.WriteString(" ")
				sb.WriteString(c.Callee.FullName())
			}
			sb.WriteString("\n")
		}
		return sb.String()
	}
	a, b := shape(), shape()
	if a != b {
		t.Errorf("graph shape differs between builds:\n%s\nvs\n%s", a, b)
	}
}

const summarySrc = `package s

import "fmt"

var global int

type box struct{ n int }

func (b *box) set(v int) { b.n = v }

func writeGlobal() { global++ }

func emitParam(sb *fmt.Stringer) {}

func printer() { fmt.Println("x") }

func viaHelper() { printer() }

func allocates() []int { return make([]int, 4) }

func callsAllocator() []int { return allocates() }

func pure(a, b int) int { return a + b }
`

func TestSummaries(t *testing.T) {
	fset := token.NewFileSet()
	g := Build(fset, []*Source{parseSrc(t, fset, "test/s", summarySrc)})
	find := func(name string) *types.Func {
		for _, n := range g.Nodes() {
			if n.Fn.Name() == name {
				return n.Fn
			}
		}
		t.Fatalf("function %s not found", name)
		return nil
	}

	emits := g.EmitSummaries()
	if m := emits[find("printer")]; m&EmitStdout == 0 {
		t.Errorf("printer mask = %s, want stdout", m.Describe())
	}
	if m := emits[find("viaHelper")]; m&EmitStdout == 0 {
		t.Errorf("viaHelper mask = %s, want stdout inherited through printer", m.Describe())
	}
	if m := emits[find("pure")]; m != 0 {
		t.Errorf("pure mask = %s, want nothing", m.Describe())
	}

	state := g.StateSummaries()
	if s := state[find("writeGlobal")]; len(s.Globals) != 1 || s.Globals[0].Name() != "global" {
		t.Errorf("writeGlobal globals = %v, want [global]", s.Globals)
	}
	if s := state[find("set")]; !s.MutatesReceiver {
		t.Error("box.set should mutate its receiver")
	}
	if s := state[find("pure")]; s.MutatesReceiver || len(s.Globals) != 0 {
		t.Error("pure should have an empty state summary")
	}

	allocs := g.AllocSummaries()
	if len(allocs[find("allocates")]) == 0 {
		t.Error("allocates should have an allocation site (make)")
	}
	if len(allocs[find("pure")]) != 0 {
		t.Errorf("pure should not allocate: %v", allocs[find("pure")])
	}
	reach := g.AllocReach(allocs)
	if reach[find("callsAllocator")] == nil {
		t.Error("callsAllocator should transitively allocate")
	}
	if reach[find("pure")] != nil {
		t.Error("pure should not be in the alloc closure")
	}
}
