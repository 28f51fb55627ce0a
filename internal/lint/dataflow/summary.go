package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// RefClass classifies the storage an expression ultimately refers to,
// relative to the enclosing function: its receiver, one of its
// parameters, a package-level variable, or a local.
type RefClass struct {
	Kind  RefKind
	Param int // parameter index when Kind == RefParam
}

// RefKind enumerates the storage classes ClassifyRef distinguishes.
type RefKind int

// Reference storage classes, from least to most escaping.
const (
	RefUnknown RefKind = iota
	RefLocal
	RefParam
	RefReceiver
	RefGlobal
)

// rootIdent strips selectors, indexing, derefs, address-ofs, and parens
// down to the base identifier of an lvalue-ish expression.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			// A call result is a fresh value; treat as local.
			return nil
		default:
			return nil
		}
	}
}

// ClassifyRef resolves e's root storage relative to node n. Expressions
// whose root cannot be determined (call results, literals) classify as
// RefLocal: they denote fresh values that cannot outlive the function.
func (g *Graph) ClassifyRef(n *Node, e ast.Expr) RefClass {
	id := rootIdent(e)
	if id == nil {
		return RefClass{Kind: RefLocal}
	}
	obj := n.Src.Info.Uses[id]
	if obj == nil {
		obj = n.Src.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return RefClass{Kind: RefLocal}
	}
	return g.classifyVar(n, v)
}

func (g *Graph) classifyVar(n *Node, v *types.Var) RefClass {
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return RefClass{Kind: RefGlobal}
	}
	sig, _ := n.Fn.Type().(*types.Signature)
	if sig != nil {
		if recv := sig.Recv(); recv != nil && recv == v {
			return RefClass{Kind: RefReceiver}
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Params().At(i) == v {
				return RefClass{Kind: RefParam, Param: i}
			}
		}
	}
	return RefClass{Kind: RefLocal}
}

// EmitMask is a bitset of the places a function can emit ordered output
// to: implicit process stdout/stderr, package-level storage, its
// receiver, or one of its parameters (bit paramBit0+i for parameter i).
// A function whose mask is zero only ever writes function-local
// buffers, which cannot leak iteration order to a caller.
type EmitMask uint64

// EmitMask bits.
const (
	EmitStdout EmitMask = 1 << iota
	EmitGlobal
	EmitReceiver
	paramBit0 = 8 // bits 8.. are per-parameter
)

// Param reports whether the mask includes emission into parameter i.
func (m EmitMask) Param(i int) bool {
	if i > 55 {
		return true // conservatively escaping beyond the bitset width
	}
	return m&(1<<(paramBit0+i)) != 0
}

func paramMask(i int) EmitMask {
	if i > 55 {
		return EmitGlobal // saturate: treat as escaping
	}
	return 1 << (paramBit0 + i)
}

// Describe renders the mask for diagnostics.
func (m EmitMask) Describe() string {
	var parts []string
	if m&EmitStdout != 0 {
		parts = append(parts, "stdout")
	}
	if m&EmitGlobal != 0 {
		parts = append(parts, "package state")
	}
	if m&EmitReceiver != 0 {
		parts = append(parts, "its receiver")
	}
	for i := 0; i <= 55; i++ {
		if m&(1<<(paramBit0+i)) != 0 {
			parts = append(parts, "a caller-supplied writer")
			break
		}
	}
	if len(parts) == 0 {
		return "nothing"
	}
	return strings.Join(parts, ", ")
}

// isFmtPrint reports whether fn is a printing function of package fmt
// and, if so, whether it takes an explicit writer first argument.
func isFmtPrint(fn *types.Func) (explicitWriter, ok bool) {
	if pkgPath(fn) != "fmt" {
		return false, false
	}
	name := fn.Name()
	switch {
	case strings.HasPrefix(name, "Fprint"):
		return true, true
	case strings.HasPrefix(name, "Print"):
		return false, true
	}
	return false, false
}

// isWriterWrite reports whether the call is a Write*-shaped method on a
// writer-ish receiver: strings.Builder, bytes.Buffer, or anything
// satisfying io.Writer's method name shape.
func isWriterWrite(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	if !strings.HasPrefix(fn.Name(), "Write") {
		return false
	}
	switch pkgPath(fn) {
	case "strings", "bytes", "bufio", "io", "os":
		return true
	}
	// Interface method named Write* on any io.Writer-like interface.
	_, isIface := sig.Recv().Type().Underlying().(*types.Interface)
	return isIface
}

// EmitSummaries computes, for every module function, where its emitted
// output can land, propagated through call chains: a helper that
// Fprintf's into its own parameter makes its caller emit into whatever
// the caller passed. The fixpoint is monotone over a finite lattice, so
// iteration terminates.
func (g *Graph) EmitSummaries() map[*types.Func]EmitMask {
	if g.emitOnce {
		return g.emits
	}
	g.emitOnce = true
	g.emits = make(map[*types.Func]EmitMask)
	for changed := true; changed; {
		changed = false
		for _, n := range g.order {
			m := g.emitOf(n)
			if m != g.emits[n.Fn] {
				g.emits[n.Fn] = m
				changed = true
			}
		}
	}
	return g.emits
}

// emitOf evaluates one function's mask under the current fixpoint state.
func (g *Graph) emitOf(n *Node) EmitMask {
	var mask EmitMask
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(n.Src.Info, call)
		if callee == nil {
			return true
		}
		mask |= g.emitAtSite(n, call, callee)
		return true
	})
	return mask
}

// emitAtSite resolves the emission of one call site into the enclosing
// function's frame: the callee's sinks are mapped through the site's
// receiver/argument expressions.
func (g *Graph) emitAtSite(n *Node, call *ast.CallExpr, callee *types.Func) EmitMask {
	classify := func(e ast.Expr) EmitMask {
		switch rc := g.ClassifyRef(n, e); rc.Kind {
		case RefGlobal:
			return EmitGlobal
		case RefReceiver:
			return EmitReceiver
		case RefParam:
			return paramMask(rc.Param)
		}
		return 0 // local: invisible to callers
	}
	// Base cases: fmt printing and writer Write methods.
	if explicitWriter, ok := isFmtPrint(callee); ok {
		if !explicitWriter {
			return EmitStdout
		}
		if len(call.Args) > 0 {
			return classify(call.Args[0])
		}
		return 0
	}
	if isWriterWrite(callee) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return classify(sel.X)
		}
		return 0
	}
	// Module callee: map its sinks through this site.
	cm, ok := g.emits[callee]
	if !ok {
		return 0
	}
	var mask EmitMask
	if cm&EmitStdout != 0 {
		mask |= EmitStdout
	}
	if cm&EmitGlobal != 0 {
		mask |= EmitGlobal
	}
	if cm&EmitReceiver != 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			mask |= classify(sel.X)
		}
	}
	for i := 0; i < len(call.Args); i++ {
		if cm.Param(i) {
			mask |= classify(call.Args[i])
		}
	}
	return mask
}

// StateSummary describes a function's direct mutations of state that
// outlives it.
type StateSummary struct {
	// Globals are the package-level variables the body assigns to
	// (directly or via ++/--/compound assignment), sorted by name.
	Globals []*types.Var
	// MutatesReceiver is set when the body writes a field of its
	// receiver (or the receiver itself through a pointer).
	MutatesReceiver bool
	// Locks is set when the body contains a direct sync acquisition:
	// Mutex/RWMutex Lock/RLock, Once.Do, or WaitGroup.Wait.
	Locks bool
}

// StateSummaries computes direct state mutation per module function.
func (g *Graph) StateSummaries() map[*types.Func]*StateSummary {
	if g.stateOnce {
		return g.state
	}
	g.stateOnce = true
	g.state = make(map[*types.Func]*StateSummary)
	for _, n := range g.order {
		g.state[n.Fn] = g.stateOf(n)
	}
	return g.state
}

func (g *Graph) stateOf(n *Node) *StateSummary {
	s := &StateSummary{}
	globals := make(map[*types.Var]bool)
	noteWrite := func(e ast.Expr) {
		id := rootIdent(e)
		if id == nil {
			return
		}
		obj, _ := n.Src.Info.Uses[id].(*types.Var)
		if obj == nil {
			obj, _ = n.Src.Info.Defs[id].(*types.Var)
		}
		if obj == nil {
			return
		}
		switch rc := g.classifyVar(n, obj); rc.Kind {
		case RefGlobal:
			globals[obj] = true
		case RefReceiver:
			// Writing the receiver variable itself only mutates shared
			// state through a pointer field path (x.f = …); plain
			// `recv = …` rebinds the local copy.
			if _, isIdent := e.(*ast.Ident); !isIdent {
				s.MutatesReceiver = true
			}
		}
	}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				noteWrite(lhs)
			}
		case *ast.IncDecStmt:
			noteWrite(x.X)
		case *ast.CallExpr:
			callee := calleeOf(n.Src.Info, x)
			if callee != nil && isSyncAcquire(callee) {
				s.Locks = true
			}
		}
		return true
	})
	for v := range globals {
		s.Globals = append(s.Globals, v)
	}
	sort.Slice(s.Globals, func(i, j int) bool {
		return s.Globals[i].Name() < s.Globals[j].Name()
	})
	return s
}

// isSyncAcquire reports whether fn is a sync-package acquisition:
// Mutex/RWMutex (R)Lock, Once.Do, WaitGroup.Wait.
func isSyncAcquire(fn *types.Func) bool {
	if pkgPath(fn) != "sync" {
		return false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Do", "Wait":
		return true
	}
	return false
}

// IsSyncType reports whether t is (or points to / derives from) a
// synchronization primitive: a channel, or a named type from sync or
// sync/atomic.
func IsSyncType(t types.Type) bool {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
			continue
		case *types.Named:
			if pkg := x.Obj().Pkg(); pkg != nil {
				p := pkg.Path()
				if p == "sync" || p == "sync/atomic" {
					return true
				}
			}
			t = x.Underlying()
			continue
		case *types.Chan:
			return true
		}
		return false
	}
}

// Alloc is one allocating construct in a function body.
type Alloc struct {
	Pos  token.Pos
	What string
}

// allocPkgs are stdlib packages whose every call is assumed to
// allocate; a hot path must not call into them.
var allocPkgs = map[string]bool{
	"fmt": true, "errors": true, "sort": true, "strings": true,
	"strconv": true, "bytes": true, "os": true, "io": true,
	"encoding/json": true, "encoding/binary": true, "encoding/hex": true,
	"reflect": true,
}

// AllocSummaries computes the direct allocating constructs of every
// module function: map/slice composite literals, make/new, append
// (growth is not statically bounded), closures, and interface boxing of
// call arguments.
func (g *Graph) AllocSummaries() map[*types.Func][]Alloc {
	if g.allocOnce {
		return g.allocs
	}
	g.allocOnce = true
	g.allocs = make(map[*types.Func][]Alloc)
	for _, n := range g.order {
		g.allocs[n.Fn] = g.allocOf(n)
	}
	return g.allocs
}

func (g *Graph) allocOf(n *Node) []Alloc {
	var out []Alloc
	info := n.Src.Info
	add := func(pos token.Pos, what string) { out = append(out, Alloc{Pos: pos, What: what}) }
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CompositeLit:
			tv, ok := info.Types[x]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				add(x.Pos(), "allocates a map literal")
			case *types.Slice:
				add(x.Pos(), "allocates a slice literal")
			}
		case *ast.FuncLit:
			add(x.Pos(), "creates a closure")
			return false // the literal's body is its own problem
		case *ast.CallExpr:
			fun := ast.Unparen(x.Fun)
			if id, ok := fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make":
						add(x.Pos(), "calls make")
					case "new":
						add(x.Pos(), "calls new")
					case "append":
						add(x.Pos(), "append may grow its backing array")
					}
					return true
				}
			}
			callee := calleeOf(info, x)
			if callee != nil && allocPkgs[pkgPath(callee)] {
				add(x.Pos(), "calls "+callee.FullName()+", which allocates")
				return true
			}
			// Interface boxing of concrete arguments.
			if callee != nil {
				g.noteBoxing(n, x, callee, add)
			}
		}
		return true
	})
	return out
}

// AllocReach computes the reverse closure of AllocSummaries: every
// module function that allocates directly or through any module call
// chain, mapped to a chain ending at the direct allocation. Memoized —
// the allocs argument must be the graph's own AllocSummaries result.
func (g *Graph) AllocReach(allocs map[*types.Func][]Alloc) map[*types.Func]*Taint {
	if g.allocReachOnce {
		return g.allocReach
	}
	g.allocReachOnce = true
	g.allocReach = g.ReachesSink(func(fn *types.Func) (string, bool) {
		if as := allocs[fn]; len(as) > 0 {
			return as[0].What, true
		}
		return "", false
	})
	return g.allocReach
}

// noteBoxing flags call arguments whose concrete value is converted to
// a non-empty parameter interface at the call site (boxing allocates
// unless the value is pointer-shaped; we flag value types only).
func (g *Graph) noteBoxing(n *Node, call *ast.CallExpr, callee *types.Func, add func(token.Pos, string)) {
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic():
			st, _ := params.At(params.Len() - 1).Type().(*types.Slice)
			if st == nil {
				continue
			}
			pt = st.Elem()
		default:
			continue
		}
		if _, ok := pt.(*types.TypeParam); ok {
			continue // a type parameter's argument is passed as itself, never boxed
		}
		if _, ok := pt.Underlying().(*types.Interface); !ok {
			continue
		}
		at, ok := n.Src.Info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		switch at.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature, *types.Chan, *types.Map, *types.Slice:
			continue // already a pointer-shaped word, no box
		}
		if at.IsNil() {
			continue
		}
		add(arg.Pos(), "boxes a "+at.Type.String()+" into an interface argument")
	}
}
