package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The one size the parallel scenario runs at.
const (
	parallelPages     = 2048 // working set, 4 KB pages
	parallelEpochs    = 4
	parallelServers   = 8  // simulated PFS servers
	parallelInterfere = 32 // pages rewritten mid-flush per epoch
)

// sweepWorkers is the worker sweep of the parallel and restore scenarios;
// the first entry is the serial baseline.
var sweepWorkers = []int{1, 2, 4, 8}

// runParallel sweeps commit-pipeline worker counts over a simulated
// striped parallel file system and reports how the background flush scales:
// throughput, speedup over the serial committer, and the application wait
// time caused by mid-flush writes. Every run commits real bytes into an
// in-memory repository alongside the virtual-time cost model, and each
// sweep point's restored image is compared bit for bit against the serial
// baseline — the parallel pipeline must change performance only, never the
// chain's content.
func runParallel(w io.Writer, _ int) error {
	fmt.Fprintf(w, "parallel commit pipeline: %d pages x %d epochs, %d PFS servers, %d mid-flush rewrites/epoch\n\n",
		parallelPages, parallelEpochs, parallelServers, parallelInterfere)

	results := make([]*parallelResult, 0, len(sweepWorkers))
	for _, workers := range sweepWorkers {
		res, err := runParallelConfig(workers)
		if err != nil {
			return fmt.Errorf("workers=%d: %w", workers, err)
		}
		results = append(results, res)
	}
	base := results[0]

	fmt.Fprintf(w, "%-9s %-14s %-12s %-9s %-14s %-7s %s\n",
		"workers", "flush-time", "throughput", "speedup", "wait-time", "waits", "restore")
	for _, r := range results {
		verdict := "bit-identical"
		if r == base {
			verdict = "serial baseline"
		} else if !imagesEqual(base.image, r.image) {
			return fmt.Errorf("workers=%d: restored image differs from the serial baseline", r.workers)
		}
		speedup := float64(base.flushTime) / float64(r.flushTime)
		fmt.Fprintf(w, "%-9d %-14v %-12s %-9.2f %-14v %-7d %s\n",
			r.workers, r.flushTime.Round(time.Microsecond), throughput(r.flushBytes, r.flushTime),
			speedup, r.waitTime.Round(time.Microsecond), r.waits, verdict)
		// With eight independent storage channels the pipeline must scale:
		// from four workers on it has to flush at least twice as fast as
		// the serial committer.
		if r.workers >= 4 && speedup < 2 {
			return fmt.Errorf("%d workers reached only %.2fx over serial, want >= 2x", r.workers, speedup)
		}
	}

	fmt.Fprintf(w, "\nwait-time delta vs serial: ")
	for _, r := range results[1:] {
		fmt.Fprintf(w, "w%d %+.1f%%  ", r.workers, 100*(float64(r.waitTime)/float64(base.waitTime)-1))
	}
	fmt.Fprintln(w)
	return nil
}

func throughput(bytes int64, d time.Duration) string {
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

// pfsServerLinks models n independent PFS servers: 100 MB/s each, 200us
// per-request overhead.
func pfsServerLinks(k *sim.Kernel, n int) []*netsim.Link {
	links := make([]*netsim.Link, n)
	for i := range links {
		links[i] = netsim.NewLink(k, netsim.LinkConfig{
			Name:        fmt.Sprintf("pfs-server-%d", i),
			BytesPerSec: 100 << 20,
			PerMessage:  200 * time.Microsecond,
		})
	}
	return links
}

// runParallelConfig runs the scenario's deterministic workload under the
// virtual-time kernel with the given number of commit workers. Page writes
// are striped over the PFS server links, so aggregate flush bandwidth is
// there for the taking — the question is whether the committer can drive
// it.
func runParallelConfig(workers int) (*parallelResult, error) {
	const pages, epochs = parallelPages, parallelEpochs
	k := sim.NewKernel()
	fs := &ckpt.MemFS{}
	backend := &timedRepo{
		timing: storage.NewSimPFS(nil, pfsServerLinks(k, parallelServers)),
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
			for p := 0; p < parallelInterfere; p++ {
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
