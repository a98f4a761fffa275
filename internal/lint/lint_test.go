package lint

import (
	"path/filepath"
	"testing"
)

// testdataMod is the mini-module holding the analyzer testdata packages.
// Its own go.mod keeps the real module's ./... patterns away from it.
const testdataMod = "testdata/mod"

func TestGuardedbyTestdata(t *testing.T) {
	CheckTestdata(t, Guardedby, testdataMod, "./internal/guardedbytest")
}

func TestWalltimeTestdata(t *testing.T) {
	CheckTestdata(t, Walltime, testdataMod, "./internal/walltimetest")
}

func TestHotpathTestdata(t *testing.T) {
	CheckTestdata(t, Hotpath, testdataMod, "./internal/hotpathtest")
}

func TestPoolpairTestdata(t *testing.T) {
	CheckTestdata(t, Poolpair, testdataMod, "./internal/poolpairtest")
}

// TestTestdataWantCoverage pins the testdata's breadth: every analyzer must
// demonstrate at least one caught violation (a fulfilled want) and at least
// one annotated exemption (an //aickpt:allow or :walltime directive in its
// package).
func TestTestdataWantCoverage(t *testing.T) {
	cases := []struct {
		a       *Analyzer
		pattern string
	}{
		{Guardedby, "./internal/guardedbytest"},
		{Walltime, "./internal/walltimetest"},
		{Hotpath, "./internal/hotpathtest"},
		{Poolpair, "./internal/poolpairtest"},
	}
	for _, c := range cases {
		loader, err := NewLoader(testdataMod)
		if err != nil {
			t.Fatalf("%s: loader: %v", c.a.Name, err)
		}
		pkgs, err := loader.Load(c.pattern)
		if err != nil {
			t.Fatalf("%s: load: %v", c.a.Name, err)
		}
		if n := len(Run(pkgs, []*Analyzer{c.a})); n == 0 {
			t.Errorf("%s: testdata catches no violation", c.a.Name)
		}
		exempt := 0
		for _, pkg := range pkgs {
			dirs := indexDirectives(pkg.Fset, pkg.Files)
			for _, ds := range dirs.byLine {
				for _, d := range ds {
					if d.verb == "allow" || d.verb == "walltime" {
						exempt++
					}
				}
			}
		}
		if exempt == 0 {
			t.Errorf("%s: testdata demonstrates no annotated exemption", c.a.Name)
		}
	}
}

// TestLookup covers the registry.
func TestLookup(t *testing.T) {
	for _, a := range All {
		if Lookup(a.Name) != a {
			t.Errorf("Lookup(%q) did not return the registered analyzer", a.Name)
		}
	}
	if Lookup("nope") != nil {
		t.Errorf("Lookup of an unknown name returned an analyzer")
	}
}

// TestLoaderPatterns covers the module-relative pattern forms against the
// testdata module.
func TestLoaderPatterns(t *testing.T) {
	loader, err := NewLoader(testdataMod)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	if loader.ModPath() != "lintmod" {
		t.Fatalf("module path = %q, want lintmod", loader.ModPath())
	}
	all, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	if len(all) != 4 {
		t.Fatalf("./... loaded %d packages, want 4", len(all))
	}
	one, err := loader.Load("./internal/hotpathtest")
	if err != nil {
		t.Fatalf("load ./internal/hotpathtest: %v", err)
	}
	if len(one) != 1 || one[0].Path != "lintmod/internal/hotpathtest" {
		t.Fatalf("single-package load got %+v", one)
	}
	byPath, err := loader.Load("lintmod/internal/hotpathtest")
	if err != nil || len(byPath) != 1 {
		t.Fatalf("import-path load: %v (%d pkgs)", err, len(byPath))
	}
	if _, err := loader.Load("./internal/missing"); err == nil {
		t.Fatalf("load of a missing package succeeded")
	}
}

// TestBuildConstraints pins the loader's build-tag handling on the real
// module: util has race_on.go/race_off.go variants whose //go:build lines
// must not double-declare.
func TestBuildConstraints(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.Load("./internal/util")
	if err != nil {
		t.Fatalf("load ./internal/util: %v", err)
	}
	names := map[string]bool{}
	for _, f := range pkgs[0].Files {
		names[filepath.Base(pkgs[0].Fset.Position(f.Pos()).Filename)] = true
	}
	if names["race_on.go"] && names["race_off.go"] {
		t.Fatalf("both race variants loaded: build constraints ignored")
	}
	if !names["race_on.go"] && !names["race_off.go"] {
		t.Fatalf("neither race variant loaded")
	}
}
