package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestUsageListsTheTable: -h shows the one flag and a scenario list
// generated from the table.
func TestUsageListsTheTable(t *testing.T) {
	code, stdout, stderr := runCLI("-h")
	if code != 0 || stdout != "" {
		t.Fatalf("-h: exit %d, stdout %q", code, stdout)
	}
	if n := strings.Count(stderr, "\n  -"); n != 1 || !strings.Contains(stderr, "  -scale int") {
		t.Errorf("-h shows %d flags, want only -scale:\n%s", n, stderr)
	}
	for _, s := range experiments.Scenarios {
		if !strings.Contains(stderr, s.Name) || !strings.Contains(stderr, s.Doc) {
			t.Errorf("-h does not list scenario %q:\n%s", s.Name, stderr)
		}
	}
	if code, _, stderr := runCLI(); code != 2 || !strings.Contains(stderr, "usage:") {
		t.Errorf("no scenario: exit %d, stderr %q", code, stderr)
	}
}

func TestBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"fig2", "no-such"},
		{"-scenario", "tiers"},
		{"-scale", "0", "fig2"},
		{"-scale", "4096", "fig3"},
	} {
		code, stdout, stderr := runCLI(args...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and only a diagnostic", args, code, stdout, stderr)
		}
	}
}

// TestAllRunsTheTable: `all` is every scenario in table order, and naming
// scenarios runs exactly those.
func TestAllRunsTheTable(t *testing.T) {
	code, stdout, stderr := runCLI("-scale", "2048", "all")
	if code != 0 {
		t.Fatalf("all: exit %d: %s", code, stderr)
	}
	at := 0
	for _, header := range []string{
		"Figure 2:", "Figure 3:", "Figure 4(a):", "Figure 4(b):", "Figure 5:",
		"multi-level hierarchy", "parallel commit pipeline", "parallel restore pipeline",
	} {
		i := strings.Index(stdout[at:], header)
		if i < 0 {
			t.Fatalf("all: %q missing or out of table order:\n%s", header, stdout)
		}
		at += i
	}
	_, two, _ := runCLI("-scale", "2048", "fig5", "fig2")
	_, fig5, _ := runCLI("-scale", "2048", "fig5")
	_, fig2, _ := runCLI("-scale", "2048", "fig2")
	if two != fig5+"\n"+fig2 {
		t.Errorf("`fig5 fig2` printed:\n%s\nwant fig5's output, a blank line, fig2's", two)
	}
}

// TestScenarioErrorFailsTheRun: a scenario whose own assertion fails (a
// restore that is not bit-identical, a speedup under its gate) turns into
// exit 1, and the scenarios after it do not run.
func TestScenarioErrorFailsTheRun(t *testing.T) {
	saved := experiments.Scenarios
	defer func() { experiments.Scenarios = saved }()
	experiments.Scenarios = append(saved[:len(saved):len(saved)], experiments.Scenario{
		Name: "gate", Doc: "fails",
		Run: func(w io.Writer, _ int) error {
			io.WriteString(w, "partial\n")
			return errors.New("restored image differs")
		},
	})
	code, stdout, stderr := runCLI("gate", "fig2")
	if code != 1 || stdout != "partial\n" || !strings.Contains(stderr, "gate: restored image differs") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
