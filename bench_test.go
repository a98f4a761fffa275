package aickpt

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Figures 2a-2c, 3a/3b, 4a, 4b, 5), each reporting the figure's
// headline quantities as custom metrics, plus microbenchmarks of the
// runtime's hot paths and ablations of Algorithm 4's priority tiers.
//
// Figure benchmarks run the deterministic virtual-time simulation at a
// reduced scale (see internal/experiments); per-iteration wall time is the
// cost of simulating the experiment, while the reported custom metrics are
// the simulated results themselves. `go run ./cmd/experiments` prints the
// same numbers as tables.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/erasure"
	"repro/internal/experiments"
	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/util"
	"repro/internal/workload"
)

const benchScale = 64 // memory division factor for figure benchmarks

// BenchmarkFig2a reproduces Figure 2(a): increase in execution time of the
// synthetic benchmark for each (pattern, approach).
func BenchmarkFig2a(b *testing.B) {
	for _, pattern := range []workload.Pattern{workload.Ascending, workload.Random, workload.Descending} {
		for _, strategy := range experiments.Strategies {
			b.Run(fmt.Sprintf("%v/%v", pattern, strategy), func(b *testing.B) {
				cfg := experiments.NewSyntheticConfig(benchScale, pattern)
				base := experiments.SyntheticBaseline(cfg)
				var overhead float64
				for i := 0; i < b.N; i++ {
					run := experiments.RunSynthetic(cfg, strategy)
					overhead = (run.Runtime - base).Seconds()
				}
				b.ReportMetric(overhead, "overhead-s")
			})
		}
	}
}

// BenchmarkFig2b reproduces Figure 2(b): pages that triggered WAIT.
func BenchmarkFig2b(b *testing.B) {
	for _, pattern := range []workload.Pattern{workload.Ascending, workload.Random, workload.Descending} {
		for _, strategy := range []core.Strategy{core.Adaptive, core.NoPattern} {
			b.Run(fmt.Sprintf("%v/%v", pattern, strategy), func(b *testing.B) {
				cfg := experiments.NewSyntheticConfig(benchScale, pattern)
				var waits float64
				for i := 0; i < b.N; i++ {
					waits = experiments.RunSynthetic(cfg, strategy).AvgWaits
				}
				b.ReportMetric(waits, "waits/ckpt")
			})
		}
	}
}

// BenchmarkFig2c reproduces Figure 2(c): pages that triggered AVOIDED.
func BenchmarkFig2c(b *testing.B) {
	for _, pattern := range []workload.Pattern{workload.Ascending, workload.Random, workload.Descending} {
		for _, strategy := range []core.Strategy{core.Adaptive, core.NoPattern} {
			b.Run(fmt.Sprintf("%v/%v", pattern, strategy), func(b *testing.B) {
				cfg := experiments.NewSyntheticConfig(benchScale, pattern)
				var avoided float64
				for i := 0; i < b.N; i++ {
					avoided = experiments.RunSynthetic(cfg, strategy).AvgAvoided
				}
				b.ReportMetric(avoided, "avoided/ckpt")
			})
		}
	}
}

// BenchmarkFig3a reproduces Figure 3(a): CM1 average checkpointing time
// under weak scaling.
func BenchmarkFig3a(b *testing.B) {
	for _, procs := range []int{1, 8} {
		for _, strategy := range experiments.Strategies {
			b.Run(fmt.Sprintf("procs%d/%v", procs, strategy), func(b *testing.B) {
				cfg := experiments.NewCM1Config(2*benchScale, procs)
				var ckpt float64
				for i := 0; i < b.N; i++ {
					ckpt = experiments.RunCM1(cfg, strategy, true).AvgCkptTime.Seconds()
				}
				b.ReportMetric(ckpt, "ckpt-s")
			})
		}
	}
}

// BenchmarkFig3b reproduces Figure 3(b): CM1 increase in execution time
// under weak scaling.
func BenchmarkFig3b(b *testing.B) {
	for _, procs := range []int{1, 8} {
		for _, strategy := range experiments.Strategies {
			b.Run(fmt.Sprintf("procs%d/%v", procs, strategy), func(b *testing.B) {
				cfg := experiments.NewCM1Config(2*benchScale, procs)
				base := experiments.RunCM1(cfg, core.Sync, false).Runtime
				var overhead float64
				for i := 0; i < b.N; i++ {
					run := experiments.RunCM1(cfg, strategy, true)
					overhead = (run.Runtime - base).Seconds()
				}
				b.ReportMetric(overhead, "overhead-s")
			})
		}
	}
}

// BenchmarkFig4a reproduces Figure 4(a): CM1 reduction in checkpointing
// overhead vs sync as the COW buffer grows.
func BenchmarkFig4a(b *testing.B) {
	for _, mb := range []int{0, 16, 256} {
		b.Run(fmt.Sprintf("cow%dMB", mb), func(b *testing.B) {
			var ours, np float64
			for i := 0; i < b.N; i++ {
				rows := experiments.Fig4a(2*benchScale, 8, []int{mb})
				for _, r := range rows {
					if r.Strategy == core.Adaptive {
						ours = r.ReductionPct
					} else {
						np = r.ReductionPct
					}
				}
			}
			b.ReportMetric(ours, "ours-%")
			b.ReportMetric(np, "no-pattern-%")
		})
	}
}

// BenchmarkFig4b reproduces Figure 4(b): the MILC COW sweep.
func BenchmarkFig4b(b *testing.B) {
	for _, mb := range []int{0, 16, 256} {
		b.Run(fmt.Sprintf("cow%dMB", mb), func(b *testing.B) {
			var ours, np float64
			for i := 0; i < b.N; i++ {
				rows := experiments.Fig4b(8*benchScale, 20, []int{mb})
				for _, r := range rows {
					if r.Strategy == core.Adaptive {
						ours = r.ReductionPct
					} else {
						np = r.ReductionPct
					}
				}
			}
			b.ReportMetric(ours, "ours-%")
			b.ReportMetric(np, "no-pattern-%")
		})
	}
}

// BenchmarkFig5 reproduces Figure 5: MILC weak scaling, COW deactivated.
func BenchmarkFig5(b *testing.B) {
	for _, procs := range []int{10, 20} {
		for _, strategy := range experiments.Strategies {
			b.Run(fmt.Sprintf("procs%d/%v", procs, strategy), func(b *testing.B) {
				cfg := experiments.NewMILCConfig(8*benchScale, procs)
				base := experiments.RunMILC(cfg, core.Sync, false).Runtime
				var overhead float64
				for i := 0; i < b.N; i++ {
					run := experiments.RunMILC(cfg, strategy, true)
					overhead = (run.Runtime - base).Seconds()
				}
				b.ReportMetric(overhead, "overhead-s")
			})
		}
	}
}

// BenchmarkAblation measures the contribution of each priority tier of
// Algorithm 4 (DESIGN.md §6): the waited-page hint and the live-COW slot
// recycling preference, on the descending synthetic workload where ordering
// matters most.
func BenchmarkAblation(b *testing.B) {
	variants := []struct {
		name              string
		noWaited, noIveCw bool
	}{
		{"full", false, false},
		{"no-waited-hint", true, false},
		{"no-cow-priority", false, true},
		{"neither", true, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := experiments.NewSyntheticConfig(benchScale, workload.Descending)
			cfg.NoWaitedHint = v.noWaited
			cfg.NoLiveCowPriority = v.noIveCw
			base := experiments.SyntheticBaseline(cfg)
			var overhead float64
			for i := 0; i < b.N; i++ {
				run := experiments.RunSynthetic(cfg, core.Adaptive)
				overhead = (run.Runtime - base).Seconds()
			}
			b.ReportMetric(overhead, "overhead-s")
		})
	}
}

// --- microbenchmarks of the runtime hot paths ---

// BenchmarkFaultPath measures one trapped first write (fault -> handler ->
// classification -> unprotect) on the real-time runtime with an in-memory
// store.
func BenchmarkFaultPath(b *testing.B) {
	space := pagemem.NewSpace(4096)
	m := core.NewManager(core.Config{
		Env: sim.NewRealEnv(), Space: space, Store: storage.NullStore{},
		Strategy: core.Adaptive, CowSlots: 1 << 20, Name: "bench",
	})
	defer m.Close()
	r := space.Alloc(1<<30, true) // 256k pages
	_, count := r.Pages()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Touch(i % count)
	}
}

// BenchmarkUnprotectedWrite measures the write path once a page's
// protection has been lifted (the common case within an epoch).
func BenchmarkUnprotectedWrite(b *testing.B) {
	space := pagemem.NewSpace(4096)
	r := space.Alloc(1<<20, false)
	buf := make([]byte, 64)
	r.Write(0, buf) // lift protection (no handler installed)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Write(0, buf)
	}
}

// BenchmarkCheckpointCycle measures a full checkpoint round (rotate,
// re-protect, flush to a null store) for a 64 MB dirty set.
func BenchmarkCheckpointCycle(b *testing.B) {
	space := pagemem.NewSpace(4096)
	m := core.NewManager(core.Config{
		Env: sim.NewRealEnv(), Space: space, Store: storage.NullStore{},
		Strategy: core.Adaptive, CowSlots: 4096, Name: "bench",
	})
	defer m.Close()
	const pages = 16384
	r := space.Alloc(pages*4096, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < pages; p++ {
			r.Touch(p)
		}
		m.Checkpoint()
		m.WaitIdle()
	}
	b.ReportMetric(float64(pages), "pages/ckpt")
}

// BenchmarkAdaptiveSelectorBuild measures building the Algorithm 4 priority
// queues for a 65536-page dirty set (the per-checkpoint cost).
func BenchmarkAdaptiveSelectorBuild(b *testing.B) {
	const pages = 65536
	rng := util.NewRNG(1)
	lastAT := make([]core.AccessType, pages)
	lastIndex := make([]int32, pages)
	dirty := util.NewBitset(pages)
	for p := 0; p < pages; p++ {
		dirty.Set(p)
		lastAT[p] = core.AccessType(rng.Intn(5))
		lastIndex[p] = int32(rng.Intn(pages))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildAdaptiveSelectorForBench(dirty, lastAT, lastIndex)
	}
}

// BenchmarkCommitHotPath measures the full steady-state commit pipeline —
// fault trap, epoch rotation, off-critical-path selector build, inline
// content hash, pooled DEFLATE encode, record framing — through the public
// runtime into an in-memory repository. allocs/op (divided by pages/ckpt)
// is the headline: the per-page paths are pooled and must not allocate in
// steady state.
func BenchmarkCommitHotPath(b *testing.B) {
	repo := ckpt.NewRepository(&ckpt.MemFS{}, 4096)
	repo.SetCodec(compress.Flate)
	rt, err := New(Options{PageSize: 4096, Store: repo, CowBuffer: 1 << 24, CommitWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	const pages = 512
	region := rt.MallocProtected(pages * 4096)
	buf := make([]byte, 4096)
	fill := func(p, e int) {
		for j := range buf {
			buf[j] = byte(p*31 + e*7 + j%13)
		}
		region.Write(p*4096, buf)
	}
	for p := 0; p < pages; p++ { // warm pools and bookkeeping
		fill(p, 0)
	}
	rt.Checkpoint()
	rt.WaitIdle()
	b.SetBytes(pages * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < pages; p++ {
			fill(p, i+1)
		}
		rt.Checkpoint()
		rt.WaitIdle()
	}
	b.ReportMetric(float64(pages), "pages/ckpt")
}

// BenchmarkRepositoryWrite measures the durable page-commit path (record
// framing + hashing + buffered write) into an in-memory FS.
func BenchmarkRepositoryWrite(b *testing.B) {
	fs := &ckpt.MemFS{}
	repo := ckpt.NewRepository(fs, 4096)
	page := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := repo.WritePage(1, i, page, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// clearDir removes every published file, off the clock, so a benchmark that
// seals one epoch per iteration keeps a bounded directory.
func clearDir(b *testing.B, fs *ckpt.OSFS) {
	b.StopTimer()
	names, err := fs.List()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range names {
		if err := fs.Remove(n); err != nil {
			b.Fatal(err)
		}
	}
	b.StartTimer()
}

// BenchmarkRepositoryWriteOSFS is the repository layer on the real
// filesystem: one iteration is one epoch of 4 KiB pages — hashed, probed,
// appended by 1 or 2 writers — sealed with OSFS's fsync publish of segment
// and manifest. 512 pages is the 2 MiB epoch whose fixed costs dominate,
// 16,384 the 64 MiB one where the append does.
func BenchmarkRepositoryWriteOSFS(b *testing.B) {
	const pageSize = 4096
	for _, writers := range []int{1, 2} {
		for _, pages := range []int{512, 16384} {
			b.Run(fmt.Sprintf("writers%d/pages%d", writers, pages), func(b *testing.B) {
				fs, err := ckpt.NewOSFS(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				repo := ckpt.NewRepository(fs, pageSize)
				rng := util.NewRNG(5)
				base := make([]byte, pageSize)
				for i := range base {
					base[i] = byte(rng.Uint64())
				}
				b.SetBytes(int64(pages) * pageSize)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					epoch := uint64(i + 1)
					var wg sync.WaitGroup
					for w := 0; w < writers; w++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							page := append([]byte(nil), base...)
							for p := w; p < pages; p += writers {
								// New content every epoch: nothing dedups.
								binary.LittleEndian.PutUint64(page, epoch)
								binary.LittleEndian.PutUint64(page[8:], uint64(p))
								if err := repo.WritePage(epoch, p, page, pageSize); err != nil {
									b.Error(err)
									return
								}
							}
						}()
					}
					wg.Wait()
					if err := repo.EndEpoch(epoch); err != nil {
						b.Fatal(err)
					}
					clearDir(b, fs)
				}
			})
		}
	}
}

// BenchmarkWriteBaseOSFS is the compactor's write side on the real
// filesystem: one 64 MiB base of 4 KiB pages through writeSegment, both
// publishes included.
func BenchmarkWriteBaseOSFS(b *testing.B) {
	const pageSize, pages = 4096, 16384
	fs, err := ckpt.NewOSFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rng := util.NewRNG(6)
	image := ckpt.NewPageSet(pages)
	for p := 0; p < pages; p++ {
		data := make([]byte, pageSize)
		for i := 0; i < pageSize; i += 8 {
			binary.LittleEndian.PutUint64(data[i:], rng.Uint64())
		}
		image.Append(p, data)
	}
	b.SetBytes(pages * pageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ckpt.WriteBase(fs, 1, uint64(i+1), pageSize, &image, 0); err != nil {
			b.Fatal(err)
		}
		clearDir(b, fs)
	}
}

// BenchmarkErasureEncode measures Reed-Solomon encoding of a 4 KB page into
// 8+2 shards.
func BenchmarkErasureEncode(b *testing.B) {
	c := erasure.New(8, 2)
	rng := util.NewRNG(2)
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(rng.Uint64())
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(page)
	}
}

// BenchmarkCompressPage measures DEFLATE page compression of typical
// floating-point-like content through the pooled steady-state path
// (recycled writer state, caller-supplied output buffer).
func BenchmarkCompressPage(b *testing.B) {
	rng := util.NewRNG(3)
	page := make([]byte, 4096)
	for i := 0; i < len(page); i += 8 {
		v := rng.Uint64() & 0x000fffffffffffff // low entropy in high bytes
		for j := 0; j < 8; j++ {
			page[i+j] = byte(v >> (8 * j))
		}
	}
	dst := make([]byte, 0, 4096+128)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compress.EncodeInto(compress.Flate, page, dst)
	}
}

// BenchmarkKernelHandoff measures one virtual-time process dispatch
// (sleep -> schedule -> resume), the unit cost of every simulated event.
func BenchmarkKernelHandoff(b *testing.B) {
	k := sim.NewKernel()
	n := b.N
	k.Go("spinner", func() {
		for i := 0; i < n; i++ {
			k.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
