package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of the enclosing module using
// only the standard library. Module-internal imports are resolved by
// walking the module tree; everything else (the standard library) is
// type-checked from source via go/importer.
type Loader struct {
	fset     *token.FileSet
	std      types.Importer
	mod      string // module path from go.mod
	root     string // absolute module root directory
	pkgs     map[string]*Package
	checking map[string]bool
	typeErrs []error
}

// FindModuleRoot walks upward from dir until it finds a go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			mod = strings.TrimSpace(rest)
			break
		}
	}
	if mod == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		mod:      mod,
		root:     root,
		pkgs:     make(map[string]*Package),
		checking: make(map[string]bool),
	}, nil
}

// ModulePath returns the module path from go.mod.
func (l *Loader) ModulePath() string { return l.mod }

// Root returns the absolute module root directory.
func (l *Loader) Root() string { return l.root }

// loaderImporter resolves imports during type checking: module-internal
// paths recurse into the loader; everything else goes to the source
// importer.
type loaderImporter struct{ l *Loader }

func (i loaderImporter) Import(path string) (*types.Package, error) {
	l := i.l
	if path == l.mod || strings.HasPrefix(path, l.mod+"/") {
		p, err := l.loadImportPath(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) dirForImportPath(path string) string {
	if path == l.mod {
		return l.root
	}
	rel := strings.TrimPrefix(path, l.mod+"/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

func (l *Loader) loadImportPath(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)
	p, err := l.loadDir(l.dirForImportPath(path), path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// loadDir parses and type-checks the non-test Go files of one directory
// as the package importPath.
func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var firstErr error
	conf := types.Config{
		Importer: loaderImporter{l},
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
			l.typeErrs = append(l.typeErrs, err)
		},
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, firstErr)
	}
	p := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	p.buildIgnores()
	return p, nil
}

// LoadModule loads every package of the module (skipping testdata,
// hidden and underscore-prefixed directories) in sorted import-path
// order.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root &&
			(name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") &&
				!strings.HasSuffix(n, "_test.go") && !strings.HasPrefix(n, ".") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return nil, err
		}
		importPath := l.mod
		if rel != "." {
			importPath = l.mod + "/" + filepath.ToSlash(rel)
		}
		p, err := l.loadImportPath(importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadFixture loads a standalone directory (typically under testdata)
// as a synthetic package. Imports of the enclosing module resolve
// normally, so fixtures may import e.g. ucp/internal/stats. By default
// the package path is "fixture/<dirname>"; a fixture exercising a rule
// that keys on import paths (seedflow's internal/rng purity) can
// declare its own with a
//
//	//ucplint:importpath ucp/internal/rng
//
// directive in any of its files.
func (l *Loader) LoadFixture(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := "fixture/" + filepath.Base(abs)
	if declared, ok := l.fixtureImportPath(abs); ok {
		path = declared
	}
	return l.loadDir(abs, path)
}

// fixtureImportPath pre-scans a fixture directory for a
// //ucplint:importpath directive. The sniff parse uses a throwaway
// FileSet so the real load still owns the positions.
func (l *Loader) fixtureImportPath(dir string) (string, bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", false
	}
	sniff := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(sniff, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			continue
		}
		if d, ok := fileDirective(f, "importpath"); ok && len(d.Args) == 1 {
			return d.Args[0], true
		}
	}
	return "", false
}
