package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// compareMain prints, per workload and metric, the medians of two run
// sets, their relative difference and the metric's bound. A difference is
// only a verdict when the noise allows one: where the quartile spread of
// either run's own samples exceeds the bound, the metric is unresolved.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	var sets [2]runSet
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark compare: %s: %v\n", path, err)
			return 1
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tunit\tB vs A\tbound\tspread A\tspread B\tverdict")
	worse := 0
	for _, a := range sets[0].Workloads {
		for _, b := range sets[1].Workloads {
			if a.Workload != b.Workload || a.Trace != b.Trace {
				continue
			}
			for _, ma := range a.Metrics {
				for _, mb := range b.Metrics {
					if ma.Name != mb.Name {
						continue
					}
					verdict := compareMetric(ma, mb)
					if verdict == "WORSE" {
						worse++
					}
					fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%s\t%.1f%%\t%.1f%%\t%s\n",
						a.Workload, ma.Name, ma.Value, mb.Value, ma.Unit, 100*relDiff(ma, mb),
						boundText(ma), 100*spread(ma), 100*spread(mb), verdict)
				}
			}
		}
	}
	tw.Flush()
	if worse > 0 {
		return 1
	}
	return 0
}

func boundText(m metricValue) string {
	if m.Bound == 0 {
		return "-"
	}
	return fmt.Sprintf("%g%%", 100*m.Bound)
}

// relDiff is (B-A)/A.
func relDiff(a, b metricValue) float64 {
	if a.Value == 0 {
		return 0
	}
	return (b.Value - a.Value) / math.Abs(a.Value)
}

// spread is the run's own quartile distance as a share of its median.
func spread(m metricValue) float64 {
	if m.Value == 0 || m.N < 2 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Value)
}

// compareMetric judges B against A for a bounded metric: "ok" within the
// bound, "WORSE" beyond it, "unresolved" when either run's spread is wider
// than the bound. Layer metrics have no bound and get no verdict.
func compareMetric(a, b metricValue) string {
	if a.Bound == 0 {
		return ""
	}
	if spread(a) > a.Bound || spread(b) > a.Bound {
		return "unresolved"
	}
	d := relDiff(a, b)
	if a.Better == higher {
		d = -d
	}
	if d > a.Bound {
		return "WORSE"
	}
	return "ok"
}
