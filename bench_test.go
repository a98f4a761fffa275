package aickpt

// Benchmark harness: microbenchmarks of the runtime's hot paths, and an
// ablation of Algorithm 4's priority tiers on the virtual-time simulator
// (internal/experiments; its scenarios and golden outputs are the paper's
// figures).

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

const benchScale = 64 // memory division factor of the simulated ablation

// BenchmarkAblation measures the contribution of each priority tier of
// Algorithm 4 (DESIGN.md §6): the waited-page hint and the live-COW slot
// recycling preference, on the descending synthetic workload where ordering
// matters most.
func BenchmarkAblation(b *testing.B) {
	variants := []struct {
		name                string
		noWaited, noLiveCow bool
	}{
		{"full", false, false},
		{"no-waited-hint", true, false},
		{"no-cow-priority", false, true},
		{"neither", true, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			d := experiments.Synthetic(benchScale, workload.Descending)
			d.NoWaitedHint = v.noWaited
			d.NoLiveCowPriority = v.noLiveCow
			base := experiments.Simulate(d, core.Adaptive, false).Runtime
			var overhead float64
			for i := 0; i < b.N; i++ {
				run := experiments.Simulate(d, core.Adaptive, true)
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
