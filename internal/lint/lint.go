// Package lint implements ucplint, the repository's custom static
// analysis pass. The simulator's results are only meaningful if every
// run is bit-for-bit reproducible and every modeled structure respects
// its declared hardware budget, so this package mechanically enforces
// the invariants reviewers would otherwise have to police by hand:
// no wall-clock or global-randomness sources, no map-iteration-ordered
// output, saturating counters staying inside their declared bit widths,
// globally unique statistics names, config structs whose Validate
// methods cover every numeric field, and no direct trace decoding
// outside the arena/codec entry points (sweep paths share one decoded
// arena per batch).
//
// Since the interprocedural engine landed (internal/lint/dataflow), the
// pass also proves module-wide dataflow invariants: every random value
// derives from a config seed (seedflow), goroutine fan-out never shares
// unguarded mutable state (sharedstate), map-iteration order cannot
// taint a digest or report through any call chain (mapemit), and
// //ucplint:hotpath functions stay allocation-free (hotalloc).
//
// The implementation is deliberately stdlib-only (go/ast, go/parser,
// go/token, go/types): the repository must keep building with nothing
// but the Go toolchain.
//
// Individual findings can be suppressed with a comment on the flagged
// line or the line directly above it:
//
//	//ucplint:ignore <rule> [<rule>...]   suppress the named rules
//
// A bare //ucplint:ignore (no rule names) suppresses nothing and is
// itself a finding (rule ignorename): blanket suppressions hide future
// findings of rules that did not exist when they were written.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"

	"ucp/internal/lint/dataflow"
)

// Package is one type-checked package under analysis.
type Package struct {
	// Path is the import path ("ucp/internal/core", or a synthetic
	// "fixture/..." path for testdata packages).
	Path string
	// Dir is the directory the files were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// ignores maps filename -> line -> rules suppressed on that line
	// ("*" suppresses everything).
	ignores map[string]map[int][]string
}

// buildIgnores scans the package's comments for //ucplint:ignore
// directives. A directive suppresses findings reported on its own line
// and on the line immediately below it (so it can trail a statement or
// sit above one). A bare ignore with no rule names suppresses nothing;
// the ignorename analyzer reports it.
func (p *Package) buildIgnores() {
	p.ignores = make(map[string]map[int][]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, d := range directives(cg) {
				if d.Name != "ignore" || len(d.Args) == 0 {
					continue
				}
				pos := p.Fset.Position(d.Pos)
				m := p.ignores[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					p.ignores[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], d.Args...)
			}
		}
	}
}

// suppressed reports whether a finding for rule at pos is covered by an
// ignore directive.
func (p *Package) suppressed(pos token.Position, rule string) bool {
	m := p.ignores[pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, r := range m[line] {
			if r == rule {
				return true
			}
		}
	}
	return false
}

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Rule, f.Msg)
}

// Reporter collects findings, applying per-line suppression.
type Reporter struct {
	findings []Finding
}

// Report records a finding unless an ignore directive covers it.
func (r *Reporter) Report(p *Package, pos token.Pos, rule, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(position, rule) {
		return
	}
	r.findings = append(r.findings, Finding{
		Pos:  position,
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Findings returns the collected findings sorted by position.
func (r *Reporter) Findings() []Finding {
	sort.Slice(r.findings, func(i, j int) bool {
		a, b := r.findings[i].Pos, r.findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return r.findings[i].Rule < r.findings[j].Rule
	})
	return r.findings
}

// Analyzer is one ucplint rule. Some analyzers carry cross-package
// state (e.g. repo-wide stat-name uniqueness), so a fresh set from
// NewAnalyzers must be used for each run. A rule implements
// CheckPackage (intraprocedural, called once per package),
// CheckModule (interprocedural, called once over the whole Universe
// after the call graph is built), or both.
type Analyzer struct {
	Name string
	Doc  string
	// CheckPackage inspects one package. Packages are presented in
	// sorted import-path order, so cross-package state is deterministic.
	CheckPackage func(p *Package, r *Reporter)
	// CheckModule inspects the whole loaded package set at once, with
	// the module call graph available. It runs after every
	// CheckPackage pass.
	CheckModule func(u *Universe, r *Reporter)
}

// Universe is the full loaded package set plus the interprocedural
// machinery built over it: the call graph and file-to-package index
// that module-wide rules report through.
type Universe struct {
	// Pkgs is sorted by import path.
	Pkgs  []*Package
	Graph *dataflow.Graph

	byFile map[string]*Package
	byPath map[string]*Package
}

// newUniverse builds the graph over the sorted package set.
func newUniverse(pkgs []*Package) *Universe {
	u := &Universe{
		Pkgs:   pkgs,
		byFile: make(map[string]*Package),
		byPath: make(map[string]*Package),
	}
	var srcs []*dataflow.Source
	var fset *token.FileSet
	for _, p := range pkgs {
		fset = p.Fset
		srcs = append(srcs, &dataflow.Source{
			Path:  p.Path,
			Files: p.Files,
			Info:  p.Info,
			Pkg:   p.Types,
		})
		u.byPath[p.Path] = p
		for _, f := range p.Files {
			u.byFile[p.Fset.Position(f.Pos()).Filename] = p
		}
	}
	if fset == nil {
		fset = token.NewFileSet()
	}
	u.Graph = dataflow.Build(fset, srcs)
	return u
}

// PkgAt resolves the package owning a source position, so graph-level
// rules can report findings with per-line suppression intact. Returns
// nil for positions outside the loaded set.
func (u *Universe) PkgAt(pos token.Pos) *Package {
	if len(u.Pkgs) == 0 {
		return nil
	}
	return u.byFile[u.Pkgs[0].Fset.Position(pos).Filename]
}

// Report files a finding at pos through the owning package's
// suppression table. Findings at unresolvable positions are dropped —
// every rule reports at AST nodes of loaded files, so this only guards
// against bugs.
func (u *Universe) Report(r *Reporter, pos token.Pos, rule, format string, args ...any) {
	if p := u.PkgAt(pos); p != nil {
		r.Report(p, pos, rule, format, args...)
	}
}

// NewAnalyzers returns a fresh instance of every ucplint rule: the
// per-package rules first (ignorename last among them, since it needs
// every rule's name), then the interprocedural ones. README's rule
// table lists them in this order (TestReadmeRuleTable).
func NewAnalyzers() []*Analyzer {
	perPackage := []*Analyzer{
		newWallclockAnalyzer(),
		newCtrWidthAnalyzer(),
		newStatNameAnalyzer(),
		newConfigBoundsAnalyzer(),
		newPprofImportAnalyzer(),
		newTraceOpenAnalyzer(),
	}
	module := []*Analyzer{
		newSeedflowAnalyzer(),
		newSharedStateAnalyzer(),
		newMapEmitAnalyzer(),
		newHotAllocAnalyzer(),
	}
	names := []string{"ignorename"}
	for _, a := range slices.Concat(perPackage, module) {
		names = append(names, a.Name)
	}
	return slices.Concat(perPackage, []*Analyzer{newIgnoreNameAnalyzer(names)}, module)
}

// Run applies the analyzers to every package and returns the sorted
// findings. Packages are sorted by import path first so analyzers with
// cross-package state behave deterministically; module-wide analyzers
// then run over the call graph built from the same sorted set.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	r := &Reporter{}
	for _, p := range sorted {
		for _, a := range analyzers {
			if a.CheckPackage != nil {
				a.CheckPackage(p, r)
			}
		}
	}
	u := newUniverse(sorted)
	for _, a := range analyzers {
		if a.CheckModule != nil {
			a.CheckModule(u, r)
		}
	}
	return r.Findings()
}

// pkgPathOf returns the import path of the package an object belongs
// to, or "" for builtins and universe-scope objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// walkWithStack traverses the AST keeping a stack of ancestor nodes;
// fn receives the node and its ancestors (outermost first). Returning
// false prunes the subtree.
func walkWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := fn(n, stack)
		stack = append(stack, n)
		if !keep {
			// Still push/pop symmetrically: Inspect will not descend,
			// so pop now and skip.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}
