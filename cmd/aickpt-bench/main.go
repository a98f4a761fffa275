// Command aickpt-bench runs the virtual-time simulator: the paper's
// evaluation figures and the model questions about the storage stack, one
// scenario per name, from the table in internal/experiments.
//
//	aickpt-bench [-scale N] <scenario>... | all
//
// Output is deterministic: the same scenario at the same scale prints the
// same bytes on every run and every host. Real-time figures come from
// benchmark/ instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit code: 0 done, 1 a scenario's own assertion failed, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aickpt-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 64, fmt.Sprintf("memory division factor of the figures, 1 (paper sizes) to %d", experiments.MaxScale))
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: aickpt-bench [-scale N] <scenario>... | all")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "scenarios:")
		for _, s := range experiments.Scenarios {
			fmt.Fprintf(stderr, "  %-9s %s\n", s.Name, s.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *scale < 1 || *scale > experiments.MaxScale {
		fmt.Fprintf(stderr, "aickpt-bench: -scale %d out of range [1, %d]\n", *scale, experiments.MaxScale)
		return 2
	}
	var todo []experiments.Scenario
	for _, name := range fs.Args() {
		if name == "all" {
			todo = append(todo, experiments.Scenarios...)
			continue
		}
		s, ok := experiments.Lookup(name)
		if !ok {
			fmt.Fprintf(stderr, "aickpt-bench: unknown scenario %q\n", name)
			fs.Usage()
			return 2
		}
		todo = append(todo, s)
	}
	if len(todo) == 0 {
		fs.Usage()
		return 2
	}
	for i, s := range todo {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if err := s.Run(stdout, *scale); err != nil {
			fmt.Fprintf(stderr, "aickpt-bench: %s: %v\n", s.Name, err)
			return 1
		}
	}
	return 0
}
