// Command benchmark measures the aickpt runtime in real time on a real
// filesystem: four workloads drive the public API end to end, and a traced
// pass over the same stack, assembled here with a span recorder on every
// layer boundary, says where the time goes. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	aickpt "repro"
	"repro/benchmark/corpus"
	"repro/benchmark/stats"
)

// workloadResult is one workload's pass, as written to -json.
type workloadResult struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Trace    int    `json:"trace"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Strategy string `json:"strategy"`
	// HostSpeed is the host index of the application loop over the nominal
	// one: below 1, the host was in a slow episode (untraced pass only).
	HostSpeed  float64       `json:"host_speed,omitempty"`
	FSType     string        `json:"fs_type"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	WallS      float64       `json:"wall_s"`
	Correct    bool          `json:"correct"`
	Attempted  int           `json:"attempted"`
	Failed     int           `json:"failed"`
	Failures   []string      `json:"failures,omitempty"`
	Metrics    []metricValue `json:"metrics"`
	// Roofline is measured beside every pass; the traced pass lists the
	// same figures among its metrics.
	Roofline []metricValue `json:"roofline,omitempty"`
}

// runSet is the -json file: one entry per workload run, and no claim. This
// benchmark defines the instrument; a gain is claimed by the change that
// makes one, against two run sets.
type runSet struct {
	Workloads []workloadResult `json:"workloads"`
	Claim     *string          `json:"claim"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	dir      string
	jsonOut  string
	traceOut string
	strategy string
	// scale divides the region; only the smoke test sets it.
	scale int
	// corrupt is the planted-corruption test's hook, see passConfig.
	corrupt func(dirs []string) error
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (one fresh process each)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every permutation, dirty set and page content")
	fs.IntVar(&o.seconds, "seconds", nominalSeconds, "size of a run: epoch counts scale with it, and the default fills about that many seconds on a 2-core machine")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics through the public API; 1: per-layer metrics from the traced stack, kernel replays and rooflines")
	fs.StringVar(&o.dir, "dir", "", "directory to create the data directory in (default: the system's temporary directory); the data is removed on exit")
	fs.StringVar(&o.jsonOut, "json", "", "write the run set to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the recorded spans to this file")
	fs.StringVar(&o.strategy, "strategy", "adaptive", "adaptive, nopattern or sync; anything but adaptive is for the discrimination check, outside the gated set")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "usage: benchmark [-workload W] [-seed N] [-seconds N] [-trace 0|1] [-dir D] [-json F] | benchmark compare A.json B.json")
		return 2
	}
	o.scale = 1
	return execute(o, stdout, stderr)
}

// execute runs what the options ask for and returns the exit code: 0 only
// when every operation of every workload succeeded and verified.
func execute(o options, stdout, stderr io.Writer) int {
	var set runSet
	var err error
	if o.workload == "all" {
		set, err = runAll(o, stdout, stderr)
	} else {
		var res workloadResult
		res, err = runOne(o, stdout)
		set.Workloads = []workloadResult{res}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// Written before the exit code is decided, so that a run with a failed
	// operation still leaves its figures behind.
	if o.jsonOut != "" {
		if err := writeJSONFile(o.jsonOut, set); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, w := range set.Workloads {
		if !w.Correct {
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload in a process of its own, so that none
// inherits another's heap, page cache footprint or peak RSS.
func runAll(o options, stdout, stderr io.Writer) (runSet, error) {
	var set runSet
	exe, err := os.Executable()
	if err != nil {
		return set, err
	}
	tmp, err := os.MkdirTemp(o.dir, "aickpt-benchmark-results-")
	if err != nil {
		return set, err
	}
	defer os.RemoveAll(tmp)
	var failed []string
	for _, name := range workloadNames() {
		out := filepath.Join(tmp, name+".json")
		cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(o.trace), "-dir", o.dir, "-strategy", o.strategy, "-json", out)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		// A child that reports a failed operation exits 1 after writing its
		// result; one that wrote none did not get that far.
		runErr := cmd.Run()
		data, err := os.ReadFile(out)
		if err != nil {
			return set, fmt.Errorf("%s: %w", name, errors.Join(runErr, err))
		}
		var child runSet
		if err := json.Unmarshal(data, &child); err != nil {
			return set, fmt.Errorf("%s: %w", name, err)
		}
		set.Workloads = append(set.Workloads, child.Workloads...)
		if runErr != nil {
			failed = append(failed, name)
		}
	}
	if len(failed) > 0 {
		fmt.Fprintln(stderr, "benchmark: failed operations on", strings.Join(failed, ", "))
	}
	return set, nil
}

func parseStrategy(s string) (aickpt.Strategy, error) {
	switch s {
	case "adaptive":
		return aickpt.Adaptive, nil
	case "nopattern":
		return aickpt.NoPattern, nil
	case "sync":
		return aickpt.Sync, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}

// diskNeed is a generous estimate of the bytes a run leaves in its
// directories at its fullest.
func diskNeed(def *workloadDef, pages, epochs int) int64 {
	region := int64(pages) * pageSize
	perEpoch := region / int64(def.dirtyDiv)
	dirs := int64(1)
	if def.spec.tiers {
		dirs = 2
	}
	// Set-up, warm-up and closing checkpoints, the compacted base, and the
	// two roofline files, on top of the measured epochs.
	return dirs*(3*region+int64(epochs+2)*perEpoch) + 2*region
}

// runOne runs one workload in this process and prints its figures; the
// last line printed is the JSON object the driver reads.
func runOne(o options, stdout io.Writer) (res workloadResult, err error) {
	started := time.Now()
	def := findWorkload(o.workload)
	if def == nil {
		return res, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	strategy, err := parseStrategy(o.strategy)
	if err != nil {
		return res, err
	}
	if o.dir != "" {
		if err := os.MkdirAll(o.dir, 0o755); err != nil {
			return res, err
		}
	}
	dir, err := os.MkdirTemp(o.dir, "aickpt-benchmark-"+def.name+"-")
	if err != nil {
		return res, err
	}
	// Removal on every path out, the failing ones too.
	defer func() {
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
	}()
	fsType, free, err := statDir(dir)
	if err != nil {
		return res, err
	}
	cfg := passConfig{
		def: def, seed: o.seed, seconds: o.seconds, scale: o.scale,
		dir: filepath.Join(dir, "data"), strategy: strategy, setups: setupRepeats, corrupt: o.corrupt,
	}
	pages := def.pages / o.scale
	if need := diskNeed(def, pages, def.epochs*o.seconds/nominalSeconds); free < need {
		return res, fmt.Errorf("%s has %d MiB free, %s needs %d MiB", dir, free>>20, def.name, need>>20)
	}
	res = workloadResult{
		Workload: def.name, Why: def.why, Trace: o.trace, Seed: o.seed, Seconds: o.seconds,
		Strategy: o.strategy, FSType: fsType, GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	fmt.Fprintf(stdout, "== %s  seed=%d seconds=%d trace=%d strategy=%s fs=%s gomaxprocs=%d dir=%s\n   %s\n",
		def.name, o.seed, o.seconds, o.trace, o.strategy, fsType, res.GOMAXPROCS, dir, def.why)

	c := corpus.Corpus{Seed: o.seed, PageSize: pageSize, Mix: def.mix}
	roof := values{}
	if err := rooflines(c, filepath.Join(dir, "roofline"), pages, roof); err != nil {
		return res, err
	}
	if o.trace == 0 {
		err = endToEndPass(cfg, &res)
		res.Roofline = report(rooflineDefs(), roof)
	} else {
		err = tracedPasses(cfg, c, roof, o.traceOut, &res)
	}
	if err != nil {
		return res, err
	}
	res.WallS = time.Since(started).Seconds()
	printResult(stdout, res, roof)
	return res, printDriverLine(stdout, res)
}

// tally adds the passes' operation counts to the result.
func tally(res *workloadResult, runs ...*run) {
	for _, r := range runs {
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Failures = append(res.Failures, r.failures...)
	}
	res.Correct = res.Failed == 0
}

// rooflineDefs are the layer metrics measured beside every pass.
func rooflineDefs() []metricDef {
	var defs []metricDef
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "roofline.") {
			defs = append(defs, d)
		}
	}
	return defs
}

// endToEndPass is -trace 0: one pass over the public stack, and the
// end-to-end metrics from it.
//
// Every timing is brought to the nominal host speed (hostindex.go): a time
// is multiplied by the host's speed during the metric's phase, a rate
// divided by it. Raw keeps the median as the clock read it.
func endToEndPass(cfg passConfig, res *workloadResult) error {
	r, err := pass(cfg)
	if err != nil {
		return err
	}
	tally(res, r)
	v := values{}
	for name, xs := range r.samples {
		v[name] = xs
	}
	v.set("cpu_s_per_gib", r.runtimeCPU.Seconds()/(float64(r.loopBytes)/(1<<30)))
	v.set("stored_bytes_per_dirty_byte", float64(r.storedBytes)/float64(r.totalBytes))
	v.set("peak_rss_mib", r.loopRSSMiB)
	v.set("ok_share", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	raw := map[string]float64{}
	for _, d := range endToEnd {
		phase := d.Name
		if r.host.samples[phase] == nil {
			phase = loopPhase
		}
		factor := r.host.speed(phase)
		switch d.Unit {
		case "MB/s":
			factor = 1 / factor
		case "s", "ms", "us", "s/GiB":
		default:
			continue // bytes and shares do not depend on the host's speed
		}
		raw[d.Name] = stats.Median(v[d.Name])
		scaled := make([]float64, len(v[d.Name]))
		for i, x := range v[d.Name] {
			scaled[i] = x * factor
		}
		v[d.Name] = scaled
	}
	res.HostSpeed = r.host.speed(loopPhase)
	res.Metrics = report(endToEnd, v)
	for i := range res.Metrics {
		res.Metrics[i].Raw = raw[res.Metrics[i].Name]
	}
	return nil
}

// tracedPasses is -trace 1: half the budget for an untraced reference pass,
// which the overhead and the reconciliation are measured against in the
// same process and minute, half for the traced pass, then the replays.
func tracedPasses(cfg passConfig, c corpus.Corpus, roof values, traceOut string, res *workloadResult) error {
	cfg.seconds, cfg.setups = max(1, cfg.seconds/2), 1
	ref, err := pass(cfg)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(cfg.dir); err != nil {
		return err
	}
	cfg.tr = newTracer(traceTags...)
	traced, err := pass(cfg)
	if err != nil {
		return err
	}
	if traceOut != "" {
		if err := cfg.tr.writeJSON(traceOut); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(cfg.dir); err != nil {
		return err
	}
	v := values{}
	for name, xs := range roof {
		v[name] = xs
	}
	layerFigures(traced, ref, v)
	if err := kernelReplays(c, v); err != nil {
		return err
	}
	overhead, err := obsOverhead(cfg)
	if err != nil {
		return err
	}
	v.set("obs.overhead_pct", overhead)
	tally(res, ref, traced)
	res.Metrics = report(perLayer, v)
	return nil
}

// rooflineOf names the machine rate a layer rate is a fraction of.
var rooflineOf = map[string]string{
	"util.fnv64a_mb_s":             "roofline.memcpy_mb_s",
	"compress.encode_mb_s.stencil": "roofline.flate_mb_s",
	"erasure.encode_mb_s":          "roofline.memcpy_mb_s",
	"erasure.decode_mb_s":          "roofline.memcpy_mb_s",
	"erasure.muladd_mb_s":          "roofline.memcpy_mb_s",
	"ckpt.fs_read_mb_s":            "roofline.read_mb_s",
}

func printResult(w io.Writer, res workloadResult, roof values) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tas clocked\tn\tq1\tq3\ttail\tbetter\tbound\tof roofline")
	for _, m := range res.Metrics {
		tail, bound, share, clocked := "", "", "", ""
		if m.Raw != 0 {
			clocked = fmt.Sprintf("%.6g", m.Raw)
		}
		if m.TailPct > 0 {
			tail = fmt.Sprintf("p%g=%.4g", m.TailPct, m.Tail)
		}
		if m.Bound > 0 {
			bound = fmt.Sprintf("%g%%", 100*m.Bound)
		}
		if top := stats.Median(roof[rooflineOf[m.Name]]); top > 0 && m.Value > 0 {
			share = fmt.Sprintf("%.0f%% of %s", 100*m.Value/top, rooflineOf[m.Name])
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%d\t%.6g\t%.6g\t%s\t%s\t%s\t%s\n",
			m.Name, m.Value, m.Unit, clocked, m.N, m.Q1, m.Q3, tail, m.Better, bound, share)
	}
	for _, m := range res.Roofline {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t\t%d\t\t\t\t\t\t\n", m.Name, m.Value, m.Unit, m.N)
	}
	tw.Flush()
	if res.HostSpeed != 0 {
		fmt.Fprintf(w, "host speed %.2f of nominal during the application loop; every timing is scaled to 1.00 by its own phase's, \"as clocked\" is what the clock read\n", res.HostSpeed)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d wall=%.1fs\n", res.Attempted, res.Failed, res.WallS)
	for _, f := range res.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
}

// printDriverLine prints the one JSON object the benchmark contract asks
// for as the last line of standard output.
func printDriverLine(w io.Writer, res workloadResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
