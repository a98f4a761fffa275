package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// A directive is one parsed //aickpt:<verb> [args...] comment. The verb set
// is open-ended; analyzers interpret the ones they know:
//
//	//aickpt:guardedby <mutex>      field: accesses require <mutex> held
//	//aickpt:hotpath                func: body must not allocate
//	//aickpt:walltime               site: exempt from the walltime check
//	//aickpt:allow <analyzer> [why] site: suppress one analyzer here
type directive struct {
	verb string
	args []string
	line int
	file string
}

// parseDirective parses a single comment's text (with the // or /* stripped)
// into a directive, or returns ok=false for ordinary prose.
func parseDirective(text string) (directive, bool) {
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "aickpt:") {
		return directive{}, false
	}
	fields := strings.Fields(strings.TrimPrefix(text, "aickpt:"))
	if len(fields) == 0 {
		return directive{}, false
	}
	return directive{verb: fields[0], args: fields[1:]}, true
}

// commentText returns a comment's content without its marker.
func commentText(c *ast.Comment) string {
	t := c.Text
	switch {
	case strings.HasPrefix(t, "//"):
		return t[2:]
	case strings.HasPrefix(t, "/*"):
		return strings.TrimSuffix(t[2:], "*/")
	}
	return t
}

// directiveIndex locates directives by (file, line) so site-level semantics
// ("this line or the line above") resolve in O(1).
type directiveIndex struct {
	byLine map[fileLine][]directive
}

type fileLine struct {
	file string
	line int
}

func indexDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{byLine: map[fileLine][]directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(commentText(c))
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				d.file, d.line = pos.Filename, pos.Line
				key := fileLine{pos.Filename, pos.Line}
				idx.byLine[key] = append(idx.byLine[key], d)
			}
		}
	}
	return idx
}

// at returns directives with the given verb on line or line-1 of file — the
// site-annotation convention: trailing on the same line, or a full-line
// comment directly above.
func (idx *directiveIndex) at(file string, line int, verb string) []directive {
	var out []directive
	for _, l := range [2]int{line, line - 1} {
		for _, d := range idx.byLine[fileLine{file, l}] {
			if d.verb == verb {
				out = append(out, d)
			}
		}
	}
	return out
}

// suppresses reports whether a diagnostic from analyzer at (file, line) is
// silenced by //aickpt:allow <analyzer> — or, for the walltime analyzer, by
// its dedicated //aickpt:walltime form.
func (idx *directiveIndex) suppresses(file string, line int, analyzer string) bool {
	for _, d := range idx.at(file, line, "allow") {
		if len(d.args) > 0 && d.args[0] == analyzer {
			return true
		}
	}
	if analyzer == "walltime" && len(idx.at(file, line, "walltime")) > 0 {
		return true
	}
	return false
}

// funcDirectives parses the //aickpt:* directives in a function's doc
// comment.
func funcDirectives(fd *ast.FuncDecl) []directive {
	if fd.Doc == nil {
		return nil
	}
	var out []directive
	for _, c := range fd.Doc.List {
		if d, ok := parseDirective(commentText(c)); ok {
			out = append(out, d)
		}
	}
	return out
}

// hasFuncDirective reports whether fd's doc carries the given verb.
func hasFuncDirective(fd *ast.FuncDecl, verb string) bool {
	for _, d := range funcDirectives(fd) {
		if d.verb == verb {
			return true
		}
	}
	return false
}

// guardMutexName extracts the guarding mutex named by the
// //aickpt:guardedby directive in a field's comment groups.
func guardMutexName(groups ...*ast.CommentGroup) (string, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if d, ok := parseDirective(commentText(c)); ok && d.verb == "guardedby" && len(d.args) > 0 {
				return d.args[0], true
			}
		}
	}
	return "", false
}
