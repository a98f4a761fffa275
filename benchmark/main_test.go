package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

// smokeOptions is a run at 1/32 of the region and a fifth of the epochs.
func smokeOptions(t *testing.T, workload string, trace int) options {
	return options{
		workload: workload, seed: 7, seconds: 3, trace: trace,
		dir: t.TempDir(), strategy: "adaptive", scale: 32,
	}
}

// driverLine parses the last line of a run's output.
func driverLine(t *testing.T, out string) (correct bool, attempted, failed int, metrics map[string]float64) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the driver's JSON object: %v\n%s", err, out)
	}
	metrics = map[string]float64{}
	for name, m := range line.Metrics {
		metrics[name] = m.Value
	}
	return line.Correct, line.Attempted, line.Failed, metrics
}

// TestSmoke runs every workload, untraced and traced, at 1/32 scale: every
// operation must succeed and verify, and each mode must print exactly the
// metrics its table lists.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var out, errOut bytes.Buffer
			o := smokeOptions(t, w.name, trace)
			o.jsonOut = filepath.Join(o.dir, "run.json")
			o.traceOut = filepath.Join(o.dir, "trace.json")
			if code := execute(o, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", w.name, trace, code, out.String(), errOut.String())
			}
			correct, attempted, failed, metrics := driverLine(t, out.String())
			if !correct || failed != 0 || attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, correct, attempted, failed)
			}
			var want, got []string
			for _, d := range defs {
				want = append(want, d.Name)
			}
			for name, value := range metrics {
				got = append(got, name)
				if trace == 0 && value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, value)
				}
			}
			sort.Strings(want)
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%d: printed metrics %v, want %v", w.name, trace, got, want)
			}
			if trace == 1 {
				for _, recon := range []string{"recon.l1.sum_ms", "recon.restore.sum_ms"} {
					if metrics[recon] <= 0 {
						t.Errorf("%s: %s = %v: the window has no spans", w.name, recon, metrics[recon])
					}
				}
				if _, err := os.Stat(o.traceOut); err != nil {
					t.Errorf("%s: no trace written: %v", w.name, err)
				}
			}
			data, err := os.ReadFile(o.jsonOut)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasSuffix(strings.TrimSpace(string(data)), "\"claim\": null\n}") {
				t.Errorf("%s: the run set does not end with \"claim\": null", w.name)
			}
			// run.json and trace.json are the test's; the data directory
			// must be gone.
			entries, err := os.ReadDir(o.dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.IsDir() {
					t.Errorf("%s: data directory %s left behind", w.name, e.Name())
				}
			}
		}
	}
}

// TestPlantedCorruptionFails flips one byte in the newest segment after the
// application loop: every restore must then fail, and the exit code with
// it.
func TestPlantedCorruptionFails(t *testing.T) {
	o := smokeOptions(t, "sparse-chain", 0)
	o.corrupt = func(dirs []string) error {
		segments, err := filepath.Glob(filepath.Join(dirs[0], "epoch-*.pages"))
		if err != nil || len(segments) == 0 {
			t.Fatalf("no segment to corrupt: %v", err)
		}
		sort.Strings(segments)
		newest := segments[len(segments)-1]
		data, err := os.ReadFile(newest)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0x40
		return os.WriteFile(newest, data, 0o644)
	}
	var out, errOut bytes.Buffer
	if code := execute(o, &out, &errOut); code == 0 {
		t.Fatalf("exit 0 with a corrupted segment\n%s", out.String())
	}
	correct, _, failed, _ := driverLine(t, out.String())
	if correct || failed == 0 {
		t.Errorf("correct=%v failed=%d after corruption", correct, failed)
	}
	if !strings.Contains(out.String(), "FAILED:") {
		t.Errorf("no FAILED line in the output:\n%s", out.String())
	}
}

func TestSelfTimesPartitionTheWindow(t *testing.T) {
	// Two overlapping ckpt spans (parallel workers), an fs span inside one
	// of them, and a gap that falls to the root.
	spans := []span{
		{start: 10, end: 50, layer: lyCkpt},
		{start: 20, end: 30, layer: lyFS},
		{start: 40, end: 70, layer: lyCkpt},
		{start: 90, end: 120, layer: lyFS}, // clipped at 100
	}
	self := selfTimes(spans, 0, 100, lyCore, func(span) bool { return true })
	want := [numLayers]int64{}
	want[lyFS] = 10 + 10
	want[lyCkpt] = (50 - 10 - 10) + (70 - 50)
	want[lyCore] = 10 + 20
	if self != want {
		t.Errorf("self = %v, want %v", self, want)
	}
	var sum int64
	for _, d := range self {
		sum += d
	}
	if sum != 100 {
		t.Errorf("parts sum to %d, the window is 100", sum)
	}
}

func TestEpochOfFile(t *testing.T) {
	for name, want := range map[string]uint32{
		"epoch-00000012.pages":         12,
		"epoch-00000012.json":          12,
		"tiers-00000003.json":          3,
		"base-00000001-00000009.pages": 9,
		"roofline":                     0,
	} {
		if got := epochOfFile(name); got != want {
			t.Errorf("epochOfFile(%q) = %d, want %d", name, got, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := func(value, q1, q3 float64, better string) metricValue {
		return metricValue{metricDef: metricDef{Name: "x", Better: better, Bound: 0.10}, Value: value, N: 11, Q1: q1, Q3: q3}
	}
	for _, tc := range []struct {
		a, b metricValue
		want string
	}{
		{m(100, 98, 102, lower), m(105, 103, 107, lower), "ok"},
		{m(100, 98, 102, lower), m(115, 113, 117, lower), "WORSE"},
		{m(100, 98, 102, higher), m(85, 84, 86, higher), "WORSE"},
		{m(100, 98, 102, higher), m(115, 113, 117, higher), "ok"},
		{m(100, 80, 120, lower), m(130, 128, 132, lower), "unresolved"},
	} {
		if got := compareMetric(tc.a, tc.b); got != tc.want {
			t.Errorf("compare(%v → %v, %s) = %q, want %q", tc.a.Value, tc.b.Value, tc.a.Better, got, tc.want)
		}
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables keeps ../BENCHMARK.json and the tables in
// metrics.go and workload.go one list. Run with -update to rewrite the file.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var want benchmarkJSON
	want.Command = []string{"bash", "benchmark/run.sh"}
	want.Paths = []string{"benchmark"}
	want.RunSeconds = nominalSeconds
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	for _, d := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{d.Name, d.Unit, d.Better})
	}
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and the tables differ; run go test -run TestBenchmarkJSON -update\n got %+v\nwant %+v", got, want)
	}
}
