package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/util"
)

var update = flag.Bool("update", false, "rewrite testdata/<scenario>.golden from this run")

// TestScenarioGolden pins every table entry's output at ScaleTiny: virtual
// time is deterministic, so two runs must print the same bytes and those
// bytes must equal the checked-in golden file. A change that moves a
// virtual-time figure re-pins it with -update and shows the move as a diff.
func TestScenarioGolden(t *testing.T) {
	if util.RaceEnabled {
		// fig4b alone takes minutes under the detector; the output does not
		// depend on it and the orderings tests run the same code under it.
		t.Skip("golden outputs are checked without the race detector")
	}
	for _, s := range Scenarios {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			run := func() []byte {
				var buf bytes.Buffer
				if err := s.Run(&buf, ScaleTiny); err != nil {
					t.Fatalf("%s: %v\n%s", s.Name, err, buf.Bytes())
				}
				return buf.Bytes()
			}
			got := run()
			if again := run(); !bytes.Equal(got, again) {
				t.Fatalf("two runs differ: %s", firstDiff(got, again))
			}
			path := filepath.Join("testdata", s.Name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s (re-pin with -update): %s", path, firstDiff(want, got))
			}
		})
	}
}

// firstDiff names the first line where a and b differ.
func firstDiff(a, b []byte) string {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			return fmt.Sprintf("line %d:\n-%s\n+%s", i+1, x, y)
		}
	}
	return "no difference"
}

func TestLookup(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Scenarios {
		if seen[s.Name] {
			t.Errorf("scenario %q listed twice", s.Name)
		}
		seen[s.Name] = true
		if got, ok := Lookup(s.Name); !ok || got.Name != s.Name || s.Doc == "" {
			t.Errorf("Lookup(%q) = %+v, %v", s.Name, got, ok)
		}
	}
	if _, ok := Lookup("all"); ok {
		t.Error(`"all" is the command line's word for the whole table, not a scenario`)
	}
}
