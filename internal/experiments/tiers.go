package experiments

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/multilevel"
	"repro/internal/netsim"
	"repro/internal/pagemem"
	"repro/internal/sim"
)

// runTiers compares 1-, 2- and 3-tier checkpoint hierarchies under
// failure: an application on node 0 of a simulated Grid'5000-like cluster
// checkpoints a real-content region; after the run the fast local tier is
// wiped and one or two peer nodes are killed, then a tier-aware restore
// attempts to rebuild the memory image. With one failure the erasure-coded
// peer tier (k=2, m=1) recovers every epoch; with two, only the 3-tier
// configuration survives, serving epochs from the parallel file system.
func runTiers(w io.Writer, _ int) error {
	for _, peerFailures := range []int{1, 2} {
		if peerFailures > 1 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "multi-level hierarchy under failure: L1 wipe + %d peer node(s) lost\n", peerFailures)
		fmt.Fprintf(w, "%-8s %-14s %-14s %-12s %s\n", "config", "app-runtime", "drain-done", "restore", "epoch sources")
		for tiers := 1; tiers <= 3; tiers++ {
			r := runTiersConfig(tiers, peerFailures)
			fmt.Fprintf(w, "%-8s %-14v %-14v %-12s %s\n", fmt.Sprintf("%d-tier", tiers), r.appRuntime, r.drainDone, r.restore, r.sources)
			if r.restore != "bit-identical" && r.restore != "FAILED" {
				return fmt.Errorf("%d-tier, %d peer(s) lost: restore %s: %s", tiers, peerFailures, r.restore, r.sources)
			}
		}
	}
	return nil
}

type tiersResult struct {
	appRuntime time.Duration
	drainDone  time.Duration
	restore    string
	sources    string
}

const (
	tiersPageSize   = 4096
	tiersIterations = 6
	tiersEvery      = 2 // checkpoint every N iterations
)

func runTiersConfig(tiers, peerFailures int) tiersResult {
	k := sim.NewKernel()
	d := cluster.NewDeployment(k, 4, cluster.NodeSpec{
		NIC:  gigabitNIC,
		Disk: netsim.LinkConfig{BytesPerSec: cluster.RennesDiskBandwidth, PerMessage: 5 * time.Microsecond},
	}, &cluster.PFSSpec{Servers: 4, ServerBandwidth: 100e6, PerRequest: 50 * time.Microsecond})

	local := multilevel.NewLocalTier(k, "local", &ckpt.MemFS{}, tiersPageSize, d.LocalBackend(0))
	var lower []multilevel.Tier
	var peer *multilevel.PeerTier
	if tiers >= 2 {
		var err error
		peer, err = multilevel.NewPeerTier("peer", 2, 1, d.PeerNodes(0), d.Nodes[0].NIC)
		if err != nil {
			panic(err)
		}
		lower = append(lower, peer)
	}
	if tiers >= 3 {
		lower = append(lower, multilevel.NewLocalTier(k, "pfs", &ckpt.MemFS{}, tiersPageSize, d.PFSBackend(0)))
	}
	h, err := multilevel.New(multilevel.Config{Env: k, PageSize: tiersPageSize, Local: local, Lower: lower})
	if err != nil {
		panic(err)
	}

	space := pagemem.NewSpace(tiersPageSize)
	mgr := core.NewManager(core.Config{
		Env:      k,
		Space:    space,
		Store:    h,
		Strategy: core.Adaptive,
		CowSlots: 64,
		Name:     "app",
	})
	const pages = 512 // 2 MB of real page content
	region := space.Alloc(pages*tiersPageSize, false)

	var res tiersResult
	k.Go("app", func() {
		buf := make([]byte, tiersPageSize)
		checkpointed := true
		for iter := 0; iter < tiersIterations; iter++ {
			// Touch a shrinking working set so later epochs are
			// incremental: all pages, then 1/2, then 1/4, ...
			span := pages >> uint(iter%3)
			for p := 0; p < span; p++ {
				for i := range buf {
					buf[i] = byte(p*31 + iter*7 + i)
				}
				region.Write(p*tiersPageSize, buf)
			}
			checkpointed = (iter+1)%tiersEvery == 0
			if checkpointed {
				mgr.Checkpoint()
			}
		}
		// Cover trailing writes so the restored image is comparable to
		// the final memory snapshot.
		if !checkpointed {
			mgr.Checkpoint()
		}
		mgr.WaitIdle()
		res.appRuntime = k.Now()
		h.WaitDrained()
		res.drainDone = k.Now()
		snapshot := append([]byte(nil), region.Bytes()...)
		mgr.Close()
		if err := h.Close(); err != nil {
			res.restore = "drain-error"
			res.sources = err.Error()
			return
		}

		// Disaster strikes: the node's fast local storage is gone, and
		// some peers with it.
		if err := h.Local().Wipe(); err != nil {
			panic(err)
		}
		if peer != nil {
			for i := 0; i < peerFailures && i < len(peer.Nodes()); i++ {
				peer.Nodes()[i].Fail()
			}
		}
		im, steps, err := h.Restore()
		if err != nil {
			res.restore = "FAILED"
			res.sources = err.Error()
			return
		}
		identical := true
		for p := 0; p < pages; p++ {
			if !bytes.Equal(im.PageOr(p), snapshot[p*tiersPageSize:(p+1)*tiersPageSize]) {
				identical = false
				break
			}
		}
		if identical {
			res.restore = "bit-identical"
		} else {
			res.restore = "CORRUPT"
		}
		counts := map[string]int{}
		for _, s := range steps {
			counts[s.Tier]++
		}
		res.sources = ""
		for _, name := range []string{"local", "peer", "pfs"} {
			if counts[name] > 0 {
				if res.sources != "" {
					res.sources += " "
				}
				res.sources += fmt.Sprintf("%s:%d", name, counts[name])
			}
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	return res
}
