package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe extracts the expectation regex from a `// want "…"` trailing
// comment in a fixture file.
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// expectation is a single `// want` comment: the finding the fixture
// promises the analyzers will produce on that line.
type expectation struct {
	file string // base name of the fixture file
	line int
	re   *regexp.Regexp
	hit  bool
}

// loadExpectations scans every .go file in dir for want comments.
func loadExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("open fixture: %v", err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regex %q: %v", e.Name(), line, m[1], err)
			}
			wants = append(wants, &expectation{file: e.Name(), line: line, re: re})
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scan fixture: %v", err)
		}
		f.Close()
	}
	return wants
}

// TestFixtures runs all analyzers over each golden fixture directory
// and checks the findings against the `// want` comments: every want
// must be matched by exactly one finding on its line, and no finding
// may lack a want.
func TestFixtures(t *testing.T) {
	root := filepath.Join("testdata")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("read testdata: %v", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			loader, err := NewLoader(dir)
			if err != nil {
				t.Fatalf("NewLoader: %v", err)
			}
			pkg, err := loader.LoadFixture(dir)
			if err != nil {
				t.Fatalf("LoadFixture: %v", err)
			}
			findings := Run([]*Package{pkg}, NewAnalyzers())
			wants := loadExpectations(t, dir)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", dir)
			}
			for _, f := range findings {
				base := filepath.Base(f.Pos.Filename)
				matched := false
				for _, w := range wants {
					if w.hit || w.file != base || w.line != f.Pos.Line {
						continue
					}
					if w.re.MatchString(f.Msg) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding %s", f)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestFixturesCoverEveryRule guards against a fixture directory being
// deleted or renamed: each analyzer must have at least one golden
// directory named after its rule.
func TestFixturesCoverEveryRule(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatalf("read testdata: %v", err)
	}
	have := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			have[e.Name()] = true
		}
	}
	var missing []string
	for _, a := range NewAnalyzers() {
		if !have[a.Name] {
			missing = append(missing, a.Name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("analyzers without a golden fixture dir: %v", missing)
	}
}

// TestReadmeRuleTable keeps README's rule table in step with the
// analyzers: its rows must name exactly the rules NewAnalyzers returns,
// in the same order, so adding, deleting or renaming a rule without
// documenting it fails here.
func TestReadmeRuleTable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatalf("read README: %v", err)
	}
	const header = "| rule | invariant it enforces | escape hatch |"
	_, table, ok := strings.Cut(string(data), header+"\n")
	if !ok {
		t.Fatalf("README has no rule table (header %q)", header)
	}
	rowRe := regexp.MustCompile("^\\| `([a-z]+)` \\|")
	var got []string
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		if m := rowRe.FindStringSubmatch(line); m != nil {
			got = append(got, m[1])
		}
	}
	var want []string
	for _, a := range NewAnalyzers() {
		want = append(want, a.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("README rule table lists\n  %v\nNewAnalyzers returns\n  %v", got, want)
	}
}

// TestRepoIsClean is the self-check: running every analyzer over the
// real module must produce zero findings, i.e. `ucplint ./...` stays
// green for the tree this test ships with.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(wd)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	findings := Run(pkgs, NewAnalyzers())
	for _, f := range findings {
		t.Errorf("repo not lint-clean: %s", f)
	}
}
