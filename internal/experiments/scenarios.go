package experiments

import (
	"fmt"
	"io"
)

// Scenario is one entry of the simulator's table: a name for the command
// line, one line of documentation, and the run itself. Every scenario runs
// at one fixed size in virtual time, so the bytes it writes to w depend on
// scale alone; testdata/<name>.golden pins them at ScaleTiny. Run returns
// an error when one of the scenario's own assertions (bit-identical
// restores, minimum speedups) does not hold.
type Scenario struct {
	Name string
	Doc  string
	Run  func(w io.Writer, scale int) error
}

// MaxScale is the largest memory division factor a scenario may be given:
// beyond it a CM1 array rounds to zero pages.
const MaxScale = 2048

// cowSweepMB is the COW-buffer sweep of Figures 4(a) and 4(b).
var cowSweepMB = []int{0, 1, 4, 16, 64, 256}

// Scenarios is the table cmd/aickpt-bench runs from, in the order `all`
// runs it. CM1 and MILC divide memory further (2x and 8x) because they
// simulate up to 32 and 280 processes.
var Scenarios = []Scenario{
	{"fig2", "Figure 2(a)-(c): synthetic benchmark, three access patterns x three approaches",
		figure("Figure 2: synthetic benchmark", 1, func(w io.Writer, scale int) {
			RenderFig2(w, Fig2(scale))
		})},
	{"fig3", "Figure 3(a)-(b): CM1 weak scalability, 1 to 32 processes",
		figure("Figure 3: CM1 weak scalability", 2, func(w io.Writer, scale int) {
			RenderFig3(w, weakScaling(scale, CM1, []int{1, 2, 4, 8, 16, 32}))
		})},
	{"fig4a", "Figure 4(a): CM1 COW-buffer sweep at 32 processes",
		figure("Figure 4(a): CM1 COW sweep, 32 processes", 2, func(w io.Writer, scale int) {
			RenderFig4(w, "Figure 4(a)", cowSweep(scale, CM1, 32, cowSweepMB))
		})},
	{"fig4b", "Figure 4(b): MILC COW-buffer sweep at 280 processes",
		figure("Figure 4(b): MILC COW sweep, 280 processes", 8, func(w io.Writer, scale int) {
			RenderFig4(w, "Figure 4(b)", cowSweep(scale, MILC, 280, cowSweepMB))
		})},
	{"fig5", "Figure 5: MILC weak scalability, 10 to 280 processes",
		figure("Figure 5: MILC weak scalability", 8, func(w io.Writer, scale int) {
			RenderFig5(w, weakScaling(scale, MILC, []int{10, 40, 120, 280}))
		})},
	{"tiers", "1-, 2- and 3-tier hierarchies restored after an L1 wipe and one or two lost peer nodes",
		runTiers},
	{"parallel", "commit pipeline at 1, 2, 4 and 8 workers over a striped PFS: flush time, wait time, bit-identity",
		runParallel},
	{"restore", "restore of a 48-epoch chain at 1, 2, 4 and 8 loaders, from PFS and from erasure shards",
		runRestore},
}

// figure adapts a paper figure to the table: a header naming the effective
// memory scale, then the rendered rows.
func figure(title string, divide int, render func(w io.Writer, scale int)) func(io.Writer, int) error {
	return func(w io.Writer, scale int) error {
		fmt.Fprintf(w, "--- %s (memory scale 1/%d) ---\n", title, divide*scale)
		render(w, divide*scale)
		return nil
	}
}

// Lookup returns the scenario called name.
func Lookup(name string) (Scenario, bool) {
	for _, s := range Scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
