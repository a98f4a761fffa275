package experiments

import (
	"fmt"
	"io"
)

// RenderFig2 prints the Figure 2 family as aligned text tables.
func RenderFig2(w io.Writer, rows []Fig2Row) {
	fmt.Fprintln(w, "Figure 2(a): increase in execution time vs baseline (s, lower is better)")
	fmt.Fprintln(w, "Figure 2(b): pages that triggered WAIT per checkpoint (lower is better)")
	fmt.Fprintln(w, "Figure 2(c): pages that triggered AVOIDED per checkpoint (higher is better)")
	fmt.Fprintf(w, "%-12s %-18s %12s %10s %10s %10s\n",
		"pattern", "approach", "overhead(s)", "WAIT", "AVOIDED", "COW")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-18s %12.3f %10.1f %10.1f %10.1f\n",
			r.Pattern, r.Strategy, r.OverheadSec, r.Waits, r.Avoided, r.Cows)
	}
}

// RenderFig3 prints the Figure 3 table.
func RenderFig3(w io.Writer, rows []ScalingRow) {
	fmt.Fprintln(w, "Figure 3(a): avg checkpointing time (s, lower is better)")
	fmt.Fprintln(w, "Figure 3(b): increase in execution time vs baseline (s, lower is better)")
	fmt.Fprintf(w, "%-8s %-18s %12s %14s %10s\n", "procs", "approach", "ckpt(s)", "overhead(s)", "WAIT")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %-18s %12.2f %14.2f %10.1f\n",
			r.Procs, r.Strategy, r.AvgCkptTimeSec, r.OverheadSec, r.Waits)
	}
}

// RenderFig4 prints a COW-sweep table (Figures 4(a) and 4(b)).
func RenderFig4(w io.Writer, title string, rows []Fig4Row) {
	fmt.Fprintf(w, "%s: reduction in checkpointing overhead vs sync (%%, higher is better)\n", title)
	fmt.Fprintf(w, "%-10s %-18s %14s\n", "COW(MB)", "approach", "reduction(%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %-18s %14.1f\n", r.CowBufferMB, r.Strategy, r.ReductionPct)
	}
}

// RenderFig5 prints the Figure 5 table.
func RenderFig5(w io.Writer, rows []ScalingRow) {
	fmt.Fprintln(w, "Figure 5: increase in execution time vs baseline (s, lower is better)")
	fmt.Fprintf(w, "%-8s %-18s %14s %12s\n", "procs", "approach", "overhead(s)", "ckpt(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %-18s %14.2f %12.2f\n",
			r.Procs, r.Strategy, r.OverheadSec, r.AvgCkptTimeSec)
	}
}
