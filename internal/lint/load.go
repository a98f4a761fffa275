package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one loaded, fully type-checked package of the module.
type Package struct {
	Path    string // import path, e.g. repro/internal/core
	ModPath string // module path, e.g. repro
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Loader type-checks module packages using only the standard library: module
// packages are parsed and checked from source recursively, standard-library
// imports resolve through go/importer's source importer. One Loader caches
// everything it checks, so loading ./... costs each package one check.
type Loader struct {
	fset    *token.FileSet
	ctx     build.Context
	modPath string
	modRoot string
	std     types.ImporterFrom
	cache   map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module containing dir (found by
// walking up to go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	// Type-checking needs no cgo preprocessing; disabling it makes the
	// build context select the pure-Go variants of stdlib packages (net's
	// Go resolver), so the source importer never shells out to the cgo
	// tool. build.Default is also what the source importer consults.
	build.Default.CgoEnabled = false
	ctx := build.Default
	fset := token.NewFileSet()
	l := &Loader{
		fset:    fset,
		ctx:     ctx,
		modPath: modPath,
		modRoot: root,
		cache:   map[string]*Package{},
		loading: map[string]bool{},
	}
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	l.std = std
	return l, nil
}

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			m := moduleRE.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
			}
			return dir, string(m[1]), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// ModPath returns the loader's module path.
func (l *Loader) ModPath() string { return l.modPath }

// Import implements go/types.Importer over the module + standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.modRoot, 0)
}

// ImportFrom implements go/types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, 0)
}

// load type-checks one module package by import path (cached).
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	dir := filepath.Join(l.modRoot, filepath.FromSlash(rel))
	pkg, err := l.check(path, dir)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// check parses and type-checks the non-test files of one directory. Build
// constraints (//go:build lines and filename suffixes) are honored via the
// loader's build context, so e.g. race-only files don't double-declare.
func (l *Loader) check(path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		match, err := l.ctx.MatchFile(dir, n)
		if err != nil {
			return nil, fmt.Errorf("lint: %s/%s: %w", dir, n, err)
		}
		if match {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l, Error: func(error) {}}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	return &Package{
		Path:    path,
		ModPath: l.modPath,
		Dir:     dir,
		Fset:    l.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// Load resolves the given patterns to packages and type-checks them.
// Patterns are module-root-relative: "./..." (every package), "./dir/..."
// (a subtree), "./dir" or a full import path (one package).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	all, err := l.packageDirs()
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, pat := range patterns {
		paths, err := l.match(pat, all)
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			want[p] = true
		}
	}
	var order []string
	for p := range want {
		order = append(order, p)
	}
	sort.Strings(order)
	pkgs := make([]*Package, 0, len(order))
	for _, p := range order {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// match expands one pattern against the module's package list.
func (l *Loader) match(pat string, all []string) ([]string, error) {
	norm := func(s string) string {
		s = strings.TrimPrefix(s, "./")
		s = strings.TrimSuffix(s, "/")
		if s == "" || s == "." {
			return l.modPath
		}
		if s == l.modPath || strings.HasPrefix(s, l.modPath+"/") {
			return s
		}
		return l.modPath + "/" + s
	}
	if rest, ok := strings.CutSuffix(pat, "..."); ok {
		prefix := norm(rest)
		var out []string
		for _, p := range all {
			if p == prefix || strings.HasPrefix(p, prefix+"/") || prefix == l.modPath {
				out = append(out, p)
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("lint: pattern %q matches no packages", pat)
		}
		return out, nil
	}
	p := norm(pat)
	for _, q := range all {
		if q == p {
			return []string{p}, nil
		}
	}
	return nil, fmt.Errorf("lint: pattern %q matches no package", pat)
}

// packageDirs enumerates every package directory of the module (directories
// holding at least one buildable non-test .go file), skipping testdata and
// hidden directories.
func (l *Loader) packageDirs() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.modRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(p)
		if p != l.modRoot && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			rel, err := filepath.Rel(l.modRoot, p)
			if err != nil {
				return err
			}
			if rel == "." {
				paths = append(paths, l.modPath)
			} else {
				paths = append(paths, l.modPath+"/"+filepath.ToSlash(rel))
			}
			break
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
