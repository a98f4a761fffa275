package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/storage"
)

// parallelScenario sweeps commit-pipeline worker counts over a simulated
// striped parallel file system and reports how the background flush scales:
// throughput, speedup over the serial committer, and the application wait
// time caused by mid-flush writes. Every run commits real bytes into an
// in-memory repository alongside the virtual-time cost model, and each
// sweep point's restored image is compared bit for bit against the serial
// baseline — the parallel pipeline must change performance only, never the
// chain's content.
func parallelScenario(pages, epochs, servers, interfere int, workerList, jsonPath string) {
	workers, err := parseWorkerList(workerList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parallel:", err)
		os.Exit(2)
	}
	fmt.Printf("parallel commit pipeline: %d pages x %d epochs, %d PFS servers, %d mid-flush rewrites/epoch\n\n",
		pages, epochs, servers, interfere)

	results := make([]*parallelResult, 0, len(workers))
	for _, w := range workers {
		res, err := runParallelConfig(w, pages, epochs, servers, interfere)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parallel: workers=%d: %v\n", w, err)
			os.Exit(1)
		}
		results = append(results, res)
	}
	base := results[0]

	fmt.Printf("%-9s %-14s %-12s %-9s %-14s %-7s %s\n",
		"workers", "flush-time", "throughput", "speedup", "wait-time", "waits", "restore")
	allIdentical := true
	for _, r := range results {
		identical := imagesEqual(base.image, r.image)
		allIdentical = allIdentical && identical
		verdict := "bit-identical"
		if !identical {
			verdict = "CORRUPT (differs from serial)"
		}
		if r == base {
			verdict = "serial baseline"
		}
		fmt.Printf("%-9d %-14v %-12s %-9.2f %-14v %-7d %s\n",
			r.workers, r.flushTime.Round(time.Microsecond), throughput(r.flushBytes, r.flushTime),
			float64(base.flushTime)/float64(r.flushTime),
			r.waitTime.Round(time.Microsecond), r.waits, verdict)
	}

	if base.waitTime > 0 {
		fmt.Printf("\nwait-time delta vs serial: ")
		for _, r := range results[1:] {
			fmt.Printf("w%d %+.1f%%  ", r.workers, 100*(float64(r.waitTime)/float64(base.waitTime)-1))
		}
		fmt.Println()
	} else {
		fmt.Println("\nwait-time delta vs serial: n/a (serial baseline recorded no waits)")
	}
	if !allIdentical {
		fmt.Fprintln(os.Stderr, "parallel: restored images diverged from the serial baseline")
		os.Exit(1)
	}
	// With enough independent storage channels the pipeline must scale: the
	// first sweep point with >= 4 workers has to flush at least twice as
	// fast as the serial committer.
	if base.workers == 1 && servers >= 4 {
		for _, r := range results {
			if r.workers >= 4 {
				speedup := float64(base.flushTime) / float64(r.flushTime)
				if speedup < 2 {
					fmt.Fprintf(os.Stderr, "parallel: %d workers reached only %.2fx over serial, want >= 2x\n",
						r.workers, speedup)
					os.Exit(1)
				}
				break
			}
		}
	}

	recs := make([]BenchRecord, 0, len(results))
	for _, r := range results {
		rec := BenchRecord{
			Scenario: "parallel",
			Case:     fmt.Sprintf("workers%d", r.workers),
			Config: map[string]any{
				"pages": pages, "epochs": epochs, "servers": servers,
				"interfere": interfere, "workers": r.workers,
			},
			Metrics: map[string]float64{
				"flush_time_ns": float64(r.flushTime.Nanoseconds()),
				"flush_bytes":   float64(r.flushBytes),
				"wait_time_ns":  float64(r.waitTime.Nanoseconds()),
				"waits":         float64(r.waits),
			},
		}
		if base.workers == 1 {
			// Only meaningful when the sweep's first point is the serial
			// committer; an arbitrary first worker count is not "serial".
			rec.Metrics["speedup_over_serial"] = float64(base.flushTime) / float64(r.flushTime)
		}
		recs = append(recs, rec)
	}
	writeBenchJSON(jsonPath, recs...)
}

func parseWorkerList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty worker list")
	}
	return out, nil
}

func throughput(bytes int64, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1f MB/s", float64(bytes)/d.Seconds()/(1<<20))
}

func imagesEqual(a, b *ckpt.Image) bool {
	return a.Epoch == b.Epoch && a.Pages.Equal(&b.Pages)
}

type parallelResult struct {
	workers    int
	flushBytes int64
	flushTime  time.Duration
	waitTime   time.Duration
	waits      int
	image      *ckpt.Image
}

// timedRepo charges each page to the virtual-time cost model, then persists
// the real bytes — the same composition the multilevel L1 tier uses.
type timedRepo struct {
	timing storage.Backend
	repo   *ckpt.Repository
}

func (t *timedRepo) WritePage(epoch uint64, page int, data []byte, size int) error {
	if err := t.timing.WritePage(epoch, page, nil, size); err != nil {
		return err
	}
	return t.repo.WritePage(epoch, page, data, size)
}

func (t *timedRepo) EndEpoch(epoch uint64) error {
	if err := t.timing.EndEpoch(epoch); err != nil {
		return err
	}
	return t.repo.EndEpoch(epoch)
}

const parallelPageSize = 4096

// runParallelConfig runs the scenario's deterministic workload under the
// virtual-time kernel with the given number of commit workers. Page writes
// are striped over `servers` independent PFS server links (100 MB/s each,
// 200us per-request overhead), so aggregate flush bandwidth is there for
// the taking — the question is whether the committer can drive it.
func runParallelConfig(workers, pages, epochs, servers, interfere int) (*parallelResult, error) {
	k := sim.NewKernel()
	fs := &ckpt.MemFS{}
	links := make([]*netsim.Link, servers)
	for i := range links {
		links[i] = netsim.NewLink(k, netsim.LinkConfig{
			Name:        fmt.Sprintf("pfs-server-%d", i),
			BytesPerSec: 100 << 20,
			PerMessage:  200 * time.Microsecond,
		})
	}
	backend := &timedRepo{
		timing: storage.NewSimPFS(nil, links),
		repo:   ckpt.NewRepository(fs, parallelPageSize),
	}
	space := pagemem.NewSpace(parallelPageSize)
	m := core.NewManager(core.Config{
		Env:           k,
		Space:         space,
		Store:         backend,
		Strategy:      core.Adaptive,
		CowSlots:      4,
		CommitWorkers: workers,
		Name:          fmt.Sprintf("w%d", workers),
	})
	r := space.Alloc(pages*parallelPageSize, false)
	buf := make([]byte, parallelPageSize)
	k.Go("app", func() {
		for e := 1; e <= epochs; e++ {
			for p := 0; p < pages; p++ {
				for j := range buf {
					buf[j] = byte(p*31 + e*7 + j%13)
				}
				r.Write(p*parallelPageSize, buf)
			}
			m.Checkpoint()
			// Rewrite the first pages while the flush is in flight: a few
			// take COW slots, the rest block and measure the wait time the
			// adaptive order and the worker pool are meant to shrink.
			for p := 0; p < interfere && p < pages; p++ {
				r.StoreByte(p*parallelPageSize, byte(e*13+p))
			}
			m.WaitIdle()
		}
		m.Close()
	})
	if err := k.Run(); err != nil {
		return nil, err
	}
	if err := m.Err(); err != nil {
		return nil, err
	}
	res := &parallelResult{workers: workers}
	for _, st := range m.Stats() {
		res.flushBytes += st.BytesCommitted
		res.flushTime += st.Duration
		res.waitTime += st.WaitTime
		res.waits += st.Waits
	}
	im, err := ckpt.Restore(fs)
	if err != nil {
		return nil, err
	}
	res.image = im
	return res, nil
}
