// Package crashsweep exhaustively validates crash consistency: it replays a
// deterministic checkpoint workload — commits with dedup, seals, compaction
// with garbage collection, multi-tier draining — once per mutating
// filesystem operation, crash-stopping at every op index in turn, and after
// each crash "reboots" over the surviving files and asserts the three
// durability invariants of the commit protocol:
//
//  1. the chain loads strictly (a crash never manufactures interior
//     corruption — at most a torn tail, which is classified as unsealed),
//  2. restore yields bit-identically the image of the newest epoch whose
//     seal completed before the crash point (never a half-sealed epoch,
//     never a rollback past a completed seal), and
//  3. a new process can reopen the chain and continue sealing.
//
// Sweeps run on the in-memory FS under fault injection, so the whole
// crash-point space (tens of runs per workload) executes in milliseconds;
// the hierarchy variant runs under the virtual-time kernel so drain-worker
// interleavings — and therefore op indices — are deterministic across runs.
package crashsweep

import (
	"bytes"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/compact"
	"repro/internal/faultfs"
	"repro/internal/multilevel"
	"repro/internal/sim"
)

// Point is the verified outcome of one crash index.
type Point struct {
	// Op is the 1-based mutating-op index the run crashed at.
	Op int64
	// Sealed is the newest durably sealed epoch found after reboot.
	Sealed uint64
	// MinSealed is the newest epoch whose seal had fully completed before
	// the crash (the floor Sealed was checked against).
	MinSealed uint64
}

// Report summarizes one sweep.
type Report struct {
	// Ops is the total number of mutating ops in the clean run (= number
	// of crash points swept).
	Ops int64
	// Points holds one verified entry per crash index.
	Points []Point
}

// sealMark records the op index at which an epoch's seal completed in the
// clean probe run, plus the restore image it is expected to produce.
type sealMark struct {
	epoch uint64
	ops   int64
	image ckpt.PageSet
}

func fill(pageSize, p, v int) []byte {
	buf := make([]byte, pageSize)
	for i := range buf {
		buf[i] = byte(p*37 + v*11 + i)
	}
	return buf
}

// minSealed returns the newest epoch whose seal completed strictly before
// crash op k (op k itself never takes effect).
func minSealed(marks []sealMark, k int64) uint64 {
	var e uint64
	for _, m := range marks {
		if m.ops <= k-1 && m.epoch > e {
			e = m.epoch
		}
	}
	return e
}

func imageFor(marks []sealMark, epoch uint64) ckpt.PageSet {
	for _, m := range marks {
		if m.epoch == epoch {
			return m.image
		}
	}
	return ckpt.PageSet{}
}

func compareImage(got *ckpt.Image, want ckpt.PageSet) error {
	if got.Pages.Len() != want.Len() {
		return fmt.Errorf("restored %d pages, want %d", got.Pages.Len(), want.Len())
	}
	for p, data := range want.All() {
		if d, _ := got.Pages.Get(p); !bytes.Equal(d, data) {
			return fmt.Errorf("page %d content differs", p)
		}
	}
	return nil
}

// runRepoWorkload drives the repository workload on fs: four epochs with
// overlapping writes (epoch 2 rewrites page 1 with identical content, so
// dedup elides it), a compaction folding epochs 1-2 (with garbage
// collection), then a final epoch. onSeal fires after every completed seal.
// The first error — the injected crash — aborts the remaining steps.
func runRepoWorkload(fs ckpt.FS, pageSize int, onSeal func(epoch uint64)) error {
	repo := ckpt.NewRepository(fs, pageSize)
	write := func(epoch uint64, p, v int) error {
		data := fill(pageSize, p, v)
		return repo.WritePage(epoch, p, data, len(data))
	}
	seal := func(epoch uint64) error {
		if err := repo.EndEpoch(epoch); err != nil {
			return err
		}
		onSeal(epoch)
		return nil
	}
	for p := 0; p < 4; p++ {
		if err := write(1, p, 1); err != nil {
			return err
		}
	}
	if err := seal(1); err != nil {
		return err
	}
	if err := write(2, 0, 2); err != nil {
		return err
	}
	if err := write(2, 1, 1); err != nil { // identical to epoch 1: dedup ref
		return err
	}
	if err := seal(2); err != nil {
		return err
	}
	if err := write(3, 2, 3); err != nil {
		return err
	}
	if err := seal(3); err != nil {
		return err
	}
	if _, err := compact.RunOnce(compact.Config{
		FS: fs, PageSize: pageSize,
		Policy: compact.Policy{MaxDepth: 2, KeepRecent: 1},
	}, false); err != nil {
		return err
	}
	if err := write(4, 0, 4); err != nil {
		return err
	}
	return seal(4)
}

// probeRepo runs the workload cleanly through a counting faultfs and
// returns the op total plus the seal marks with their expected images.
func probeRepo(pageSize int) (int64, []sealMark, error) {
	probe := faultfs.Wrap(&ckpt.MemFS{}, faultfs.Plan{})
	var marks []sealMark
	var ierr error
	err := runRepoWorkload(probe, pageSize, func(e uint64) {
		im, err := ckpt.Restore(probe)
		if err != nil {
			ierr = fmt.Errorf("crashsweep: probe restore after epoch %d: %w", e, err)
			return
		}
		marks = append(marks, sealMark{epoch: e, ops: probe.Ops(), image: im.Pages})
	})
	if err == nil {
		err = ierr
	}
	return probe.Ops(), marks, err
}

// verifyReboot checks the durability invariants on the surviving inner FS
// after a crash at op k, and that the chain accepts further seals.
func verifyReboot(inner ckpt.FS, pageSize int, marks []sealMark, k int64) (Point, error) {
	pt := Point{Op: k, MinSealed: minSealed(marks, k)}
	if _, err := ckpt.LoadChain(inner); err != nil {
		return pt, fmt.Errorf("crash at op %d: chain corrupt after reboot: %w", k, err)
	}
	sealed, _, err := ckpt.LastSealedEpoch(inner)
	if err != nil {
		return pt, fmt.Errorf("crash at op %d: %w", k, err)
	}
	pt.Sealed = sealed
	if sealed < pt.MinSealed {
		return pt, fmt.Errorf("crash at op %d rolled back to epoch %d, sealed floor %d", k, sealed, pt.MinSealed)
	}
	if sealed > 0 { // an empty chain has nothing to restore — that is correct
		im, err := ckpt.Restore(inner)
		if err != nil {
			return pt, fmt.Errorf("crash at op %d: restore: %w", k, err)
		}
		if err := compareImage(im, imageFor(marks, sealed)); err != nil {
			return pt, fmt.Errorf("crash at op %d: restored image of epoch %d wrong: %w", k, sealed, err)
		}
	}
	// The survivor must accept new seals: reopen and continue the chain.
	repo := ckpt.NewRepository(inner, pageSize)
	next := sealed + 1
	data := fill(pageSize, 0, 99)
	if err := repo.WritePage(next, 0, data, len(data)); err != nil {
		return pt, fmt.Errorf("crash at op %d: continue write: %w", k, err)
	}
	if err := repo.EndEpoch(next); err != nil {
		return pt, fmt.Errorf("crash at op %d: continue seal: %w", k, err)
	}
	if after, _, err := ckpt.LastSealedEpoch(inner); err != nil || after != next {
		return pt, fmt.Errorf("crash at op %d: chain did not advance to %d (%d, %v)", k, next, after, err)
	}
	return pt, nil
}

// RepoSweep crash-stops the repository workload at every mutating-op index
// and verifies the durability invariants after each reboot. torn (nil for
// an atomic medium) maps a crashed publish's full length to the prefix that
// survives, exercising torn manifests and segments.
func RepoSweep(pageSize int, torn func(fullLen int) int) (Report, error) {
	total, marks, err := probeRepo(pageSize)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Ops: total}
	for k := int64(1); k <= total; k++ {
		inner := &ckpt.MemFS{}
		ffs := faultfs.Wrap(inner, faultfs.Plan{CrashAtOp: k, Torn: torn})
		if err := runRepoWorkload(ffs, pageSize, func(uint64) {}); err == nil {
			return rep, fmt.Errorf("crash at op %d did not surface an error", k)
		}
		pt, err := verifyReboot(inner, pageSize, marks, k)
		if err != nil {
			return rep, err
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// runHierarchyWorkload seals three epochs through a two-tier hierarchy
// whose L1 sits on fs, draining each to a lower tier on pfsFS, then drains
// and closes. Drain-worker scheduling runs under the virtual-time kernel,
// so the L1 op sequence (seals interleaved with tier-manifest mirrors) is
// identical across runs. The injected crash surfaces as an error from a
// write or seal; drain failures after the crash are tolerated (the drainer
// records them and retires the epochs).
func runHierarchyWorkload(k *sim.Kernel, fs, pfsFS ckpt.FS, pageSize int, onSeal func(epoch uint64)) error {
	local := multilevel.NewLocalTier(k, "local", fs, pageSize, nil)
	pfs := multilevel.NewLocalTier(k, "pfs", pfsFS, pageSize, nil)
	h, err := multilevel.New(multilevel.Config{
		Env: k, PageSize: pageSize, Local: local, Lower: []multilevel.Tier{pfs},
	})
	if err != nil {
		return err
	}
	var werr error
	k.Go("app", func() {
		defer func() {
			h.WaitDrained()
			_ = h.Close() // post-crash drain errors are expected
		}()
		for epoch := uint64(1); epoch <= 3; epoch++ {
			for p := 0; p <= int(epoch); p++ {
				data := fill(pageSize, p, int(epoch))
				if err := h.WritePage(epoch, p, data, len(data)); err != nil {
					werr = err
					return
				}
			}
			if err := h.EndEpoch(epoch); err != nil {
				werr = err
				return
			}
			onSeal(epoch)
		}
	})
	if err := k.Run(); err != nil {
		return fmt.Errorf("crashsweep: kernel: %w", err)
	}
	return werr
}

// HierarchySweep crash-stops the two-tier hierarchy workload at every
// mutating L1 op and verifies that a rebooted hierarchy — fresh processes
// over the surviving L1 files and the untouched lower tier — restores the
// image of the newest completed seal. The lower tier survives the crash
// (its FS is separate), so the reboot also exercises the recovery re-drain
// over a tier that already holds a prefix of the chain.
func HierarchySweep(pageSize int, torn func(fullLen int) int) (Report, error) {
	// Clean probe run.
	probe := faultfs.Wrap(&ckpt.MemFS{}, faultfs.Plan{})
	var marks []sealMark
	var ierr error
	err := runHierarchyWorkload(sim.NewKernel(), probe, &ckpt.MemFS{}, pageSize, func(e uint64) {
		im, err := ckpt.Restore(probe)
		if err != nil {
			ierr = fmt.Errorf("crashsweep: probe restore after epoch %d: %w", e, err)
			return
		}
		marks = append(marks, sealMark{epoch: e, ops: probe.Ops(), image: im.Pages})
	})
	if err == nil {
		err = ierr
	}
	if err != nil {
		return Report{}, err
	}
	total := probe.Ops()
	rep := Report{Ops: total}
	for ki := int64(1); ki <= total; ki++ {
		inner, pfsFS := &ckpt.MemFS{}, &ckpt.MemFS{}
		ffs := faultfs.Wrap(inner, faultfs.Plan{CrashAtOp: ki, Torn: torn})
		if err := runHierarchyWorkload(sim.NewKernel(), ffs, pfsFS, pageSize, func(uint64) {}); err == nil {
			// Mirrors are best-effort writes: a crash landing on one is
			// swallowed by design, so the workload itself may complete.
			if !ffs.Crashed() {
				return rep, fmt.Errorf("crash at op %d never fired", ki)
			}
		}
		pt := Point{Op: ki, MinSealed: minSealed(marks, ki)}
		// Reboot: fresh hierarchy over the surviving L1 files plus the
		// untouched lower tier.
		env := sim.NewRealEnv()
		h, err := multilevel.New(multilevel.Config{
			Env: env, PageSize: pageSize,
			Local: multilevel.NewLocalTier(env, "local", inner, pageSize, nil),
			Lower: []multilevel.Tier{multilevel.NewLocalTier(env, "pfs", pfsFS, pageSize, nil)},
		})
		if err != nil {
			return rep, fmt.Errorf("crash at op %d: reboot: %w", ki, err)
		}
		h.WaitDrained()
		sealed, _, err := ckpt.LastSealedEpoch(inner)
		if err != nil {
			return rep, fmt.Errorf("crash at op %d: %w", ki, err)
		}
		pt.Sealed = sealed
		if sealed < pt.MinSealed {
			return rep, fmt.Errorf("crash at op %d rolled back to epoch %d, sealed floor %d", ki, sealed, pt.MinSealed)
		}
		if sealed > 0 { // an empty chain has nothing to restore — that is correct
			im, _, err := h.Restore()
			if err != nil {
				return rep, fmt.Errorf("crash at op %d: hierarchy restore: %w", ki, err)
			}
			if err := compareImage(im, imageFor(marks, sealed)); err != nil {
				return rep, fmt.Errorf("crash at op %d: restored image of epoch %d wrong: %w", ki, sealed, err)
			}
		}
		if err := h.Close(); err != nil {
			return rep, fmt.Errorf("crash at op %d: reboot close: %w", ki, err)
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}
