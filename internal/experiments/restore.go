package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/ckpt"
	"repro/internal/multilevel"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The one size the restore scenario runs at: a wide chain, every epoch
// writing its own slice of the working set.
const (
	restorePageSize = 4096
	restoreEpochs   = 48
	restorePages    = 64 // written per epoch
	restoreServers  = 8  // simulated PFS servers
)

// runRestore measures the restore path end to end: a wide checkpoint chain
// is sealed and drained through a multi-level hierarchy, the fast tier is
// destroyed, and the chain is restored at several epoch-loader counts. Two
// damage variants are swept — L1 wiped with the chain served by a striped
// parallel file system, and L1 wiped plus a peer node lost with every epoch
// rebuilt from erasure shards — and each sweep point's image is compared
// bit for bit against the serial restore. Restore time is virtual: tier
// reads are charged to the simulated links, so the speedup measures how
// well overlapping epoch loads aggregates server/NIC bandwidth, independent
// of host core count. Eight loaders must reach 3x over one on the PFS
// variant and 2x on the peer variant. A last run rewrites the same pages in
// every epoch: only the newest epoch owns a winner, and the restore must
// read it alone.
func runRestore(w io.Writer, _ int) error {
	fmt.Fprintf(w, "parallel restore pipeline: %d epochs x %d pages (%d KB/page), %d PFS servers\n",
		restoreEpochs, restorePages, restorePageSize/1024, restoreServers)

	for _, v := range []struct {
		name string
		gate float64
		run  func() ([]restorePoint, error)
	}{
		{"l1-wipe-pfs", 3, func() ([]restorePoint, error) { return runRestorePFS(false) }},
		{"peer-loss", 2, runRestorePeer},
	} {
		points, err := v.run()
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		base := points[0]
		fmt.Fprintf(w, "\n%s: chain of %d epochs\n", v.name, restoreEpochs)
		fmt.Fprintf(w, "%-9s %-16s %-9s %-14s %s\n", "workers", "restore-time", "speedup", "tier-busy", "restore")
		for _, p := range points {
			verdict := "bit-identical" // sweepRestore compared the images
			if p.workers == base.workers {
				verdict = "serial baseline"
			}
			speedup := float64(base.elapsed) / float64(p.elapsed)
			fmt.Fprintf(w, "%-9d %-16v %-9.2f %-14v %s\n",
				p.workers, p.elapsed.Round(time.Microsecond), speedup,
				p.tierBusy.Round(time.Microsecond), verdict)
			if p.workers >= 8 && speedup < v.gate {
				return fmt.Errorf("%s reached only %.2fx at %d workers, want >= %.0fx", v.name, speedup, p.workers, v.gate)
			}
		}
	}
	points, err := runRestorePFS(true)
	if err != nil {
		return fmt.Errorf("full-rewrite: %w", err)
	}
	fmt.Fprintf(w, "\nfull-rewrite: %d epochs rewriting the same %d pages, %d epoch(s) read\n",
		restoreEpochs, restorePages, points[0].read)
	if points[0].read != 1 {
		return fmt.Errorf("full-rewrite read %d epochs, want only the newest", points[0].read)
	}
	return nil
}

// restorePoint is one sweep point of one damage variant.
type restorePoint struct {
	workers  int
	elapsed  time.Duration // virtual time of the whole restore
	tierBusy time.Duration // summed SpanRestore durations (overlap > elapsed)
	read     int           // epochs the restore read
}

// restoreFill is the deterministic page content.
func restoreFill(p, e int) []byte {
	buf := make([]byte, restorePageSize)
	for i := range buf {
		buf[i] = byte(p*31 + e*7 + i%251)
	}
	return buf
}

// sweepRestore builds a 2-tier hierarchy of a local tier over lower, seals
// the chain through it, wipes L1, applies the variant's further damage, and
// restores at every worker count, measuring virtual time per point. Each
// epoch writes its own slice of the working set, so every epoch owns
// winners and every epoch's read costs the same — or, with rewrite, the
// same pages as every other epoch.
func sweepRestore(k *sim.Kernel, lower multilevel.Tier, damage func(), rewrite bool) ([]restorePoint, error) {
	met := obs.New(k.Now)
	met.Spans = obs.NewSpanLog(4 * restoreEpochs * len(sweepWorkers))
	local := multilevel.NewLocalTier(k, "local", &ckpt.MemFS{}, restorePageSize, nil)
	h, err := multilevel.New(multilevel.Config{
		Env: k, PageSize: restorePageSize, Local: local,
		Lower: []multilevel.Tier{lower}, Metrics: met,
	})
	if err != nil {
		return nil, err
	}
	points := make([]restorePoint, 0, len(sweepWorkers))
	var restoreErr error
	k.Go("app", func() {
		for e := 1; e <= restoreEpochs; e++ {
			for p := 0; p < restorePages; p++ {
				page := p
				if !rewrite {
					page += (e - 1) * restorePages
				}
				data := restoreFill(page, e)
				if err := h.WritePage(uint64(e), page, data, len(data)); err != nil {
					panic(err)
				}
			}
			if err := h.EndEpoch(uint64(e)); err != nil {
				panic(err)
			}
		}
		h.WaitDrained()
		if err := h.Close(); err != nil {
			panic(err)
		}
		if err := local.Wipe(); err != nil {
			panic(err)
		}
		damage()

		var baseIm *ckpt.Image
		for _, w := range sweepWorkers {
			spanMark := len(met.Spans.Snapshot())
			start := k.Now()
			im, steps, err := h.RestoreWith(multilevel.RestoreOptions{Workers: w})
			if err != nil {
				restoreErr = fmt.Errorf("workers=%d: %w", w, err)
				return
			}
			pt := restorePoint{workers: w, elapsed: k.Now() - start, read: len(steps)}
			for _, s := range met.Spans.Snapshot()[spanMark:] {
				if s.Kind == obs.SpanRestore {
					pt.tierBusy += s.Dur()
				}
			}
			if baseIm == nil {
				baseIm = im
			} else if !imagesEqual(baseIm, im) {
				restoreErr = fmt.Errorf("workers=%d: restored image differs from the serial restore", w)
				return
			}
			points = append(points, pt)
		}
	})
	if err := k.Run(); err != nil {
		return nil, err
	}
	return points, restoreErr
}

// runRestorePFS puts a striped PFS under the local tier: every epoch is read
// back from the parallel file system, whose per-request overhead and
// striping reward overlapping reads — the client NIC is left unmodeled, as
// at these page sizes the server request cost dominates.
func runRestorePFS(rewrite bool) ([]restorePoint, error) {
	k := sim.NewKernel()
	pfs := multilevel.NewLocalTier(k, "pfs", &ckpt.MemFS{}, restorePageSize,
		storage.NewSimPFS(nil, pfsServerLinks(k, restoreServers)))
	return sweepRestore(k, pfs, func() {}, rewrite)
}

// runRestorePeer puts erasure-coded peers under the local tier and fails
// one peer node: every epoch is reconstructed from its surviving shards,
// fetched over the peers' NICs. Shard rotation staggers which nodes
// consecutive epochs occupy, so concurrent epoch loads spread over distinct
// NICs.
func runRestorePeer() ([]restorePoint, error) {
	const peerNodes = 8
	k := sim.NewKernel()
	nodes := make([]*multilevel.PeerNode, peerNodes)
	for i := range nodes {
		nic := netsim.NewLink(k, netsim.LinkConfig{
			Name:        fmt.Sprintf("peer%d-nic", i),
			BytesPerSec: 117.5e6,
			PerMessage:  50 * time.Microsecond,
		})
		nodes[i] = multilevel.NewPeerNode(fmt.Sprintf("peer%d", i), nic)
	}
	peer, err := multilevel.NewPeerTier("peer", 2, 1, nodes, nil)
	if err != nil {
		return nil, err
	}
	return sweepRestore(k, peer, nodes[0].Fail, false)
}
