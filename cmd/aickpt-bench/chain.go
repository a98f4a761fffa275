package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ckpt"
	"repro/internal/compact"
)

// chainScenario measures how the incremental chain behaves as the run
// grows: a baseline repository (dedup off, no compaction) against a
// repository with content-addressed dedup and background-style compaction
// (depth-bounded). Both write the same epoch sequence — a rolling dirty
// window where a fraction of the pages are rewritten with identical
// content, the pattern hash-based differential checkpointing exploits —
// and both are then restored and compared bit for bit. With compaction the
// restore reads at most depth segments and the on-disk footprint stays
// flat regardless of how many epochs the run sealed.
func chainScenario(epochs, depth, pages int) {
	fmt.Printf("incremental chain growth: %d epochs, %d-page working set, compaction depth %d\n\n",
		epochs, pages, depth)
	base, err := runChainConfig(epochs, pages, 0, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chain baseline:", err)
		os.Exit(1)
	}
	comp, err := runChainConfig(epochs, pages, depth, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chain compacted:", err)
		os.Exit(1)
	}

	fmt.Printf("%-22s %-14s %-14s %-10s %-12s %s\n", "config", "write-time", "restore-time", "segments", "disk-bytes", "dedup")
	row := func(name string, r *chainResult) {
		fmt.Printf("%-22s %-14v %-14v %-10d %-12d %d pages / %d B elided\n",
			name, r.writeTime.Round(time.Microsecond), r.restoreTime.Round(time.Microsecond),
			r.segmentsRead, r.diskBytes, r.dedup.PagesDeduped, r.dedup.BytesDeduped)
	}
	row("baseline (full chain)", base)
	row(fmt.Sprintf("dedup+compact(d=%d)", depth), comp)

	identical := imagesEqual(base.image, comp.image)
	verdict := "bit-identical"
	if !identical {
		verdict = "CORRUPT (images differ)"
	}
	fmt.Printf("\nrestored images: %s\n", verdict)
	fmt.Printf("segments read:   %d -> %d (bounded by depth %d)\n", base.segmentsRead, comp.segmentsRead, depth)
	fmt.Printf("on-disk bytes:   %d -> %d (%.1f%% of baseline)\n",
		base.diskBytes, comp.diskBytes, 100*float64(comp.diskBytes)/float64(base.diskBytes))
	fmt.Printf("restore time:    %v -> %v\n",
		base.restoreTime.Round(time.Microsecond), comp.restoreTime.Round(time.Microsecond))
	if !identical {
		os.Exit(1)
	}
	if comp.segmentsRead > depth {
		fmt.Fprintf(os.Stderr, "chain: compacted restore read %d segments, want <= %d\n", comp.segmentsRead, depth)
		os.Exit(1)
	}
}

type chainResult struct {
	writeTime    time.Duration
	restoreTime  time.Duration
	segmentsRead int
	diskBytes    int64
	image        *ckpt.Image
	dedup        ckpt.DedupStats
}

const chainPageSize = 4096

// runChainConfig seals the scenario's epoch sequence into a fresh
// directory-backed repository and restores it. depth > 0 enables
// depth-bounded compaction after every seal (the synchronous equivalent of
// the background compactor's kick, keeping the benchmark deterministic).
func runChainConfig(epochs, pages, depth int, disableDedup bool) (*chainResult, error) {
	dir, err := os.MkdirTemp("", "aickpt-chain-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fs, err := ckpt.NewOSFS(dir)
	if err != nil {
		return nil, err
	}
	repo := ckpt.NewRepository(fs, chainPageSize)
	repo.SetDedup(!disableDedup)
	cfg := compact.Config{FS: fs, PageSize: chainPageSize, Policy: compact.Policy{MaxDepth: depth}}

	res := &chainResult{}
	buf := make([]byte, chainPageSize)
	start := time.Now()
	for e := 1; e <= epochs; e++ {
		// A rolling window dirties a quarter of the working set; half of
		// those writes rewrite the content the page already had (identical
		// content, the dedup target), the rest carry fresh epoch-stamped
		// content.
		window := pages / 4
		if window == 0 {
			window = 1
		}
		first := (e * window / 2) % pages
		for i := 0; i < window; i++ {
			p := (first + i) % pages
			stamp := e
			if p%2 == 1 {
				stamp = 0 // content independent of the epoch: a rewrite-identical page
			}
			for j := range buf {
				buf[j] = byte(p*31 + stamp*7 + j%13)
			}
			if err := repo.WritePage(uint64(e), p, buf, chainPageSize); err != nil {
				return nil, err
			}
		}
		if err := repo.EndEpoch(uint64(e)); err != nil {
			return nil, err
		}
		if depth > 0 {
			if _, err := compact.RunOnce(cfg, false); err != nil {
				return nil, err
			}
		}
	}
	res.writeTime = time.Since(start)
	res.dedup = repo.DedupStats()

	start = time.Now()
	im, err := ckpt.Restore(fs)
	if err != nil {
		return nil, err
	}
	res.restoreTime = time.Since(start)
	res.image = im
	res.segmentsRead = im.SegmentsRead
	res.diskBytes, err = dirBytes(dir)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
