package aickpt_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"os"

	aickpt "repro"
)

// The canonical session: allocate protected memory, iterate, checkpoint
// periodically, and inspect the per-checkpoint statistics.
func Example() {
	dir, err := os.MkdirTemp("", "aickpt-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	rt, err := aickpt.New(aickpt.Options{Dir: dir, PageSize: 4096})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	state := rt.MallocProtected(16 * 4096)
	for iter := 1; iter <= 4; iter++ {
		// Each iteration rewrites a quarter of the state.
		state.Write((iter-1)*4*4096, make([]byte, 4*4096))
		if iter%2 == 0 {
			rt.Checkpoint()
		}
	}
	rt.WaitIdle()
	for _, s := range rt.Stats() {
		fmt.Printf("checkpoint %d committed %d pages\n", s.Epoch, s.PagesCommitted)
	}
	// Output:
	// checkpoint 1 committed 8 pages
	// checkpoint 2 committed 8 pages
}

// Restart: restore the last completed checkpoint into a fresh runtime with
// the same region layout.
func ExampleRestore() {
	dir, err := os.MkdirTemp("", "aickpt-restore-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// First life.
	rt, err := aickpt.New(aickpt.Options{Dir: dir, PageSize: 4096})
	if err != nil {
		log.Fatal(err)
	}
	region := rt.MallocProtected(4096)
	region.StoreByte(0, 42)
	rt.Checkpoint()
	rt.WaitIdle()
	rt.Close()

	// Second life: same allocation order, then load the image.
	rt2, err := aickpt.New(aickpt.Options{Dir: dir, PageSize: 4096})
	if err != nil {
		log.Fatal(err)
	}
	defer rt2.Close()
	region2 := rt2.MallocProtected(4096)
	im, err := aickpt.Restore(dir)
	if err != nil {
		log.Fatal(err)
	}
	if err := rt2.LoadImage(im, region2); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 1)
	region2.Read(0, buf)
	fmt.Printf("restored epoch %d, byte = %d\n", im.Epoch, buf[0])
	// Output:
	// restored epoch 1, byte = 42
}

// Custom storage backends plug in through the Store interface; epoch
// numbering and sealing arrive through it unchanged.
func ExampleOptions_customStore() {
	store := &countingStore{}
	rt, err := aickpt.New(aickpt.Options{Store: store, PageSize: 4096})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	r := rt.MallocProtected(2 * 4096)
	r.StoreByte(0, 1)
	r.StoreByte(4096, 1)
	rt.Checkpoint()
	rt.WaitIdle()
	fmt.Printf("pages=%d sealed=%d\n", store.pages, store.sealed)
	// Output:
	// pages=2 sealed=1
}

type countingStore struct {
	pages  int
	sealed int
}

func (c *countingStore) WritePage(epoch uint64, page int, data []byte, size int) error {
	c.pages++
	return nil
}

func (c *countingStore) EndEpoch(epoch uint64) error {
	c.sealed++
	return nil
}

// Multi-level checkpointing: checkpoints land on a fast local tier, drain
// in the background to an erasure-coded peer tier and a parallel file
// system, and restore survives losing the local tier and a peer node. The
// restore reads only the epochs that still own a page of the image:
// epoch 2's page is rewritten by epoch 3, so epoch 2 is never loaded.
func ExampleHierarchy_Restore() {
	dir, err := os.MkdirTemp("", "aickpt-multilevel-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Fastest first: L1 a local directory (in a real deployment a ramdisk
	// or node-local SSD), L2 five peer nodes holding Reed-Solomon shards
	// (any 3 of the 5 rebuild an epoch, so two nodes may die), L3 an
	// in-memory stand-in for a parallel file system mount.
	rt, err := aickpt.New(aickpt.Options{
		PageSize: 4096,
		Tiers: []aickpt.TierSpec{
			{Kind: aickpt.TierLocal, Dir: dir},
			{Kind: aickpt.TierPeer, Nodes: 5, DataShards: 3, ParityShards: 2},
			{Kind: aickpt.TierPFS},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	state := rt.MallocProtected(4 * 4096)
	// Checkpoint returns once the epoch is sealed on L1; the drainer
	// promotes it to the peers and the PFS while the loop keeps running.
	for epoch, pages := range [][]int{{0, 1, 2, 3}, {1}, {1, 2}, {0}} {
		for _, p := range pages {
			state.Write(p*4096, bytes.Repeat([]byte{byte(10*epoch + p)}, 4096))
		}
		rt.Checkpoint()
	}
	rt.WaitIdle()
	h := rt.Hierarchy()
	h.WaitDrained()
	final := append([]byte(nil), state.Bytes()...)
	if err := rt.Close(); err != nil {
		log.Fatal(err)
	}

	// The node dies with its local directory, and a peer with it.
	if err := h.WipeLocal(); err != nil {
		log.Fatal(err)
	}
	if err := h.FailPeerNode(2); err != nil {
		log.Fatal(err)
	}
	im, steps, err := h.Restore()
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range steps {
		fmt.Printf("epoch %d read from the %s tier\n", s.Epoch, s.Tier)
	}
	same := true
	for p := 0; p < 4; p++ {
		same = same && bytes.Equal(im.Page(p), final[p*4096:(p+1)*4096])
	}
	fmt.Printf("restored epoch %d, bit-identical: %v\n", im.Epoch, same)
	// Output:
	// epoch 1 read from the peer tier
	// epoch 3 read from the peer tier
	// epoch 4 read from the peer tier
	// restored epoch 4, bit-identical: true
}

// A 128×128 heat-diffusion solver over a protected region, checkpointed
// every 20 of its 60 steps. Page 0 records the last completed step, the
// metadata a restartable solver needs; the grid of float64 follows it.
const (
	stencilN     = 128
	stencilSteps = 60
	stencilEvery = 20
)

type stencilGrid struct{ r *aickpt.Region }

func (g stencilGrid) step() int {
	var b [8]byte
	g.r.Read(0, b[:])
	return int(binary.LittleEndian.Uint64(b[:]))
}

func (g stencilGrid) setStep(s int) {
	g.r.Write(0, binary.LittleEndian.AppendUint64(nil, uint64(s)))
}

func (g stencilGrid) get(i, j int) float64 {
	var b [8]byte
	g.r.Read(4096+(i*stencilN+j)*8, b[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

func (g stencilGrid) set(i, j int, v float64) {
	g.r.Write(4096+(i*stencilN+j)*8, binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
}

// solveStencil runs the solver in dir from the last checkpoint there, or
// from a hot top edge, up to step 60 — or "crashes" after step crashAt
// (when > 0): no cleanup and no final checkpoint. It returns a weighted
// checksum of the grid.
func solveStencil(dir string, crashAt int) float64 {
	rt, err := aickpt.New(aickpt.Options{Dir: dir, CowBuffer: 256 << 10})
	if err != nil {
		log.Fatal(err)
	}
	g := stencilGrid{rt.MallocProtected(4096 + stencilN*stencilN*8)}
	if im, err := aickpt.Restore(dir); err == nil {
		if err := rt.LoadImage(im, g.r); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  restarted from epoch %d at step %d\n", im.Epoch, g.step())
	} else {
		for j := 0; j < stencilN; j++ {
			g.set(0, j, 100)
		}
	}
	for s := g.step() + 1; s <= stencilSteps; s++ {
		// One Gauss-Seidel sweep: physical fidelity is not the point.
		for i := 1; i < stencilN-1; i++ {
			for j := 1; j < stencilN-1; j++ {
				g.set(i, j, 0.25*(g.get(i-1, j)+g.get(i+1, j)+g.get(i, j-1)+g.get(i, j+1)))
			}
		}
		g.setStep(s)
		if s%stencilEvery == 0 {
			rt.Checkpoint()
		}
		if s == crashAt {
			break
		}
	}
	rt.WaitIdle()
	var sum float64
	for i := 0; i < stencilN; i++ {
		for j := 0; j < stencilN; j++ {
			sum += g.get(i, j) * float64(i+3*j+1)
		}
	}
	if err := rt.Close(); err != nil {
		log.Fatal(err)
	}
	return sum
}

// Restart after a crash: a solver that dies at step 33 restarts from its
// last completed checkpoint (epoch 1, step 20) and finishes with the
// checksum of a run that never crashed.
func Example_stencilRestart() {
	ref, err := os.MkdirTemp("", "stencil-ref-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(ref)
	crash, err := os.MkdirTemp("", "stencil-crash-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(crash)

	fmt.Println("reference run (no crash):")
	want := solveStencil(ref, 0)
	fmt.Println("crashing run (dies at step 33):")
	solveStencil(crash, 33)
	fmt.Println("restarted run:")
	got := solveStencil(crash, 0)
	fmt.Printf("reference checksum: %.6f\n", want)
	fmt.Printf("restarted checksum: %.6f\n", got)
	fmt.Println("restart reproduced the uninterrupted result exactly:", want == got)
	// Output:
	// reference run (no crash):
	// crashing run (dies at step 33):
	// restarted run:
	//   restarted from epoch 1 at step 20
	// reference checksum: 16483369.419879
	// restarted checksum: 16483369.419879
	// restart reproduced the uninterrupted result exactly: true
}
