package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

// This file is the single parser for ucplint's marker comments. Every
// rule that reads a directive — ignores, config/hotpath/guarded
// annotations, fixture import paths, nbits: field markers —
// goes through these helpers, so the accepted syntax cannot drift
// between rules.
//
// Directive syntax:
//
//	//ucplint:<name> [arg ...]
//
// recognized anywhere a comment is (doc comments, trailing comments,
// free-standing lines). Field markers use the older key:value form
// inside an ordinary comment (e.g. "// confidence counter. nbits:2").

// Directive is one parsed //ucplint:<name> marker.
type Directive struct {
	Name string
	Args []string
	Pos  token.Pos
}

// parseDirective parses a single comment as a ucplint directive. An
// embedded "//" ends the directive, so markers can carry a trailing
// explanation: "//ucplint:ignore hotalloc // cold branch, grows once".
func parseDirective(c *ast.Comment) (Directive, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	rest, ok := strings.CutPrefix(text, "ucplint:")
	if !ok {
		return Directive{}, false
	}
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return Directive{}, false
	}
	return Directive{Name: fields[0], Args: fields[1:], Pos: c.Pos()}, true
}

// directives yields every directive in a comment group.
func directives(cg *ast.CommentGroup) []Directive {
	if cg == nil {
		return nil
	}
	var out []Directive
	for _, c := range cg.List {
		if d, ok := parseDirective(c); ok {
			out = append(out, d)
		}
	}
	return out
}

// hasDirective reports whether any of the comment groups carries the
// named directive.
func hasDirective(name string, cgs ...*ast.CommentGroup) bool {
	for _, cg := range cgs {
		for _, d := range directives(cg) {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// fileDirective returns the first occurrence of the named directive in
// any comment of the file (not just doc comments).
func fileDirective(f *ast.File, name string) (Directive, bool) {
	for _, cg := range f.Comments {
		for _, d := range directives(cg) {
			if d.Name == name {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// funcMarked reports whether a function declaration's doc comment
// carries the named directive (e.g. "hotpath", "guarded").
func funcMarked(fd *ast.FuncDecl, name string) bool {
	return fd != nil && hasDirective(name, fd.Doc)
}

// fieldMarkerRe matches the key:value field markers ("nbits: 2").
var fieldMarkerRe = regexp.MustCompile(`(\w+):\s*(\d+)`)

// fieldMarker extracts an integer key:value marker (such as nbits:N)
// from a struct field's doc or trailing comment.
func fieldMarker(field *ast.Field, key string) (int, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, m := range fieldMarkerRe.FindAllStringSubmatch(cg.Text(), -1) {
			if m[1] != key {
				continue
			}
			n, err := strconv.Atoi(m[2])
			if err == nil && n > 0 {
				return n, true
			}
		}
	}
	return 0, false
}
