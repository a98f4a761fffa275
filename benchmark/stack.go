package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"

	aickpt "repro"
	"repro/internal/ckpt"
	"repro/internal/compact"
	"repro/internal/compress"
	"repro/internal/multilevel"
	"repro/internal/sim"
)

const (
	pageSize = 4096
	// The peer tier of tiers-failover: RS(4+2) over six in-memory nodes.
	peerData, peerParity = 4, 2
)

// stackSpec is what a workload asks of the storage stack under the runtime.
type stackSpec struct {
	dir         string // the stack's own directory: l1/ and, with tiers, pfs/ inside
	cowBuffer   int64
	compression aickpt.Compression
	tiers       bool // l1 directory + RS(4+2) peers + pfs directory
	compaction  aickpt.CompactionPolicy
	strategy    aickpt.Strategy
	noMetrics   bool // only the obs.overhead_pct replay turns metrics off
}

func (s stackSpec) l1() string  { return filepath.Join(s.dir, "l1") }
func (s stackSpec) pfs() string { return filepath.Join(s.dir, "pfs") }

// dirs lists the directories that hold checkpoint files.
func (s stackSpec) dirs() []string {
	if s.tiers {
		return []string{s.l1(), s.pfs()}
	}
	return []string{s.l1()}
}

// restoreInfo describes how one restore got its image.
type restoreInfo struct {
	epoch    uint64         // the checkpoint the image is of
	segments int            // segments folded
	steps    map[string]int // tiers-failover: epochs served per tier
	// allocsPerPage is heap allocations during the restore per page of the
	// image; the caller fills it in.
	allocsPerPage float64
}

// stack is the runtime plus the storage under it. The public stack is what
// an application gets from aickpt.New and the package-level functions; the
// traced stack is the same assembly made here from internal packages with
// a span recorder on every layer boundary.
type stack interface {
	runtime() *aickpt.Runtime
	// waitDrained blocks until every sealed epoch is on every tier, and
	// reports the first drain error. Without tiers it returns at once.
	waitDrained() error
	// restore builds the newest sealed image from the directories alone
	// and loads it into a fresh region of size bytes, as a restarted
	// process would.
	restore(size int) (image []byte, info restoreInfo, err error)
	compact() (aickpt.CompactionResult, error)
	// degrade wipes the local tier and fails two peer nodes.
	degrade() error
	// dedup returns pages stored and pages elided by dedup.
	dedup() (stored, deduped int)
	close() error
}

// nullStore drops every page: the backend of the loader runtimes restores
// use for their fresh region, and of the core-only replay.
type nullStore struct{}

func (nullStore) WritePage(uint64, int, []byte, int) error { return nil }
func (nullStore) EndEpoch(uint64) error                    { return nil }

// freshRegion is the memory of a restarted process: a new runtime whose
// first allocation gets the page numbers the checkpointed region had.
func freshRegion(size int) (*aickpt.Region, func(), error) {
	rt, err := aickpt.New(aickpt.Options{Store: nullStore{}, PageSize: pageSize, DisableMetrics: true})
	if err != nil {
		return nil, nil, err
	}
	return rt.MallocProtected(size), func() { _ = rt.Close() }, nil
}

// defaultWorkers is the width aickpt.New gives the commit pipeline and the
// restore paths when the caller leaves it at 0.
func defaultWorkers() int { return min(runtime.GOMAXPROCS(0), 8) }

func tierSpecs(s stackSpec) []aickpt.TierSpec {
	return []aickpt.TierSpec{
		{Kind: aickpt.TierLocal, Dir: s.l1()},
		{Kind: aickpt.TierPeer, DataShards: peerData, ParityShards: peerParity},
		{Kind: aickpt.TierPFS, Dir: s.pfs()},
	}
}

// publicStack drives nothing but the exported aickpt API.
type publicStack struct {
	spec stackSpec
	rt   *aickpt.Runtime
}

func newPublicStack(s stackSpec) (stack, error) {
	opts := aickpt.Options{
		PageSize:       pageSize,
		CowBuffer:      s.cowBuffer,
		Strategy:       s.strategy,
		Compression:    s.compression,
		Compaction:     s.compaction,
		DisableMetrics: s.noMetrics,
	}
	if s.tiers {
		opts.Tiers = tierSpecs(s)
	} else {
		opts.Dir = s.l1()
	}
	rt, err := aickpt.New(opts)
	if err != nil {
		return nil, err
	}
	return &publicStack{spec: s, rt: rt}, nil
}

func (p *publicStack) runtime() *aickpt.Runtime { return p.rt }

func (p *publicStack) waitDrained() error {
	h := p.rt.Hierarchy()
	if h == nil {
		return nil
	}
	h.WaitDrained()
	return h.Err()
}

func (p *publicStack) restore(size int) ([]byte, restoreInfo, error) {
	var im *aickpt.Image
	info := restoreInfo{}
	if h := p.rt.Hierarchy(); h != nil {
		var steps []aickpt.TierRestoreStep
		var err error
		if im, steps, err = h.RestoreWorkers(0); err != nil {
			return nil, info, err
		}
		info.steps = map[string]int{}
		for _, st := range steps {
			info.steps[st.Tier]++
		}
	} else {
		var err error
		if im, err = aickpt.Restore(p.spec.l1()); err != nil {
			return nil, info, err
		}
	}
	info.epoch, info.segments = im.Epoch, im.SegmentsRead()
	region, done, err := freshRegion(size)
	if err != nil {
		return nil, info, err
	}
	defer done()
	if err := p.rt.LoadImage(im, region); err != nil {
		return nil, info, err
	}
	return region.Bytes(), info, nil
}

func (p *publicStack) compact() (aickpt.CompactionResult, error) { return p.rt.CompactNow() }

func (p *publicStack) degrade() error {
	h := p.rt.Hierarchy()
	if h == nil {
		return errors.New("benchmark: degrade needs tiers")
	}
	return errors.Join(h.WipeLocal(), h.FailPeerNode(0), h.FailPeerNode(1))
}

func (p *publicStack) dedup() (stored, deduped int) {
	st := p.rt.StorageStats()
	return st.PagesStored, st.PagesDeduped
}

func (p *publicStack) close() error { return p.rt.Close() }

// tracedStack assembles what aickpt.New assembles, from the same internal
// constructors, with a decorator on each boundary, and hands it to the
// runtime through Options.Store.
type tracedStack struct {
	spec stackSpec
	tr   *tracer
	rt   *aickpt.Runtime

	repo       *ckpt.Repository       // flat stacks
	hier       *multilevel.Hierarchy  // tiers
	nodes      []*multilevel.PeerNode // tiers
	localFS    *tracedFS              // the repository's view; restores read through it too
	compactFS  *tracedFS
	compactCfg compact.Config
	compactor  *compact.Compactor // background compaction, when the spec asks for it
}

// traceTags are the FS views and tiers a traced stack tells apart.
var traceTags = []string{"", "local", "pfs", "peer", "compact"}

func newTracedStack(s stackSpec, tr *tracer) (stack, error) {
	t := &tracedStack{spec: s, tr: tr}
	l1, err := ckpt.NewOSFS(s.l1())
	if err != nil {
		return nil, err
	}
	t.localFS = newTracedFS(l1, tr, "local")
	t.compactFS = newTracedFS(l1, tr, "compact")
	t.compactCfg = compact.Config{
		FS:       t.compactFS,
		PageSize: pageSize,
		Policy: compact.Policy{
			MaxDepth:         s.compaction.MaxChainDepth,
			MaxAmplification: s.compaction.MaxAmplification,
			KeepRecent:       s.compaction.KeepRecent,
		},
	}
	store := &tracedStore{tr: tr, tag: tr.tag("local")}
	env := sim.NewRealEnv()
	if s.tiers {
		local := multilevel.NewLocalTier(env, "local", t.localFS, pageSize, nil)
		t.nodes = make([]*multilevel.PeerNode, peerData+peerParity)
		for i := range t.nodes {
			t.nodes[i] = multilevel.NewPeerNode(fmt.Sprintf("peer-node%d", i), nil)
		}
		peer, err := multilevel.NewPeerTier("peer", peerData, peerParity, t.nodes, nil)
		if err != nil {
			return nil, err
		}
		pfsDir, err := ckpt.NewOSFS(s.pfs())
		if err != nil {
			return nil, err
		}
		pfsFS := newTracedFS(pfsDir, tr, "pfs")
		t.hier, err = multilevel.New(multilevel.Config{
			Env:      env,
			PageSize: pageSize,
			Local:    local,
			Lower: []multilevel.Tier{
				&tracedPeerTier{peer, tierSpans{tr: tr, tag: tr.tag("peer"), layer: lyMultilevel}},
				&tracedDirTier{
					multilevel.NewLocalTier(env, "pfs", pfsFS, pageSize, nil),
					tierSpans{tr: tr, tag: tr.tag("pfs"), layer: lyCkpt, fs: pfsFS},
				},
			},
		})
		if err != nil {
			return nil, err
		}
		t.compactCfg.CanFold = t.hier.Settled
		t.compactCfg.OnCompacted = func(base ckpt.Manifest, _ []uint64) { t.hier.MarkSuperseded(base) }
		store.inner = t.hier
	} else {
		t.repo = ckpt.NewRepository(t.localFS, pageSize)
		if s.compression == aickpt.CompressionFlate {
			t.repo.SetCodec(compress.Flate)
			t.compactCfg.Codec = uint8(compress.Flate)
		}
		store.inner = t.repo
	}
	if t.compactCfg.Policy.Enabled() {
		t.compactor = compact.NewCompactor(env, t.compactCfg)
		store.compactor = t.compactor
		if t.hier != nil {
			t.hier.SetOnSettled(func(uint64) { t.compactor.Kick() })
		}
	}
	t.rt, err = aickpt.New(aickpt.Options{
		PageSize:       pageSize,
		CowBuffer:      s.cowBuffer,
		Strategy:       s.strategy,
		Store:          store,
		CommitWorkers:  defaultWorkers(),
		DisableMetrics: s.noMetrics,
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (t *tracedStack) runtime() *aickpt.Runtime { return t.rt }

func (t *tracedStack) waitDrained() error {
	if t.hier == nil {
		return nil
	}
	t.hier.WaitDrained()
	return t.hier.Err()
}

func (t *tracedStack) restore(size int) ([]byte, restoreInfo, error) {
	info := restoreInfo{}
	var im *ckpt.Image
	var err error
	if t.hier != nil {
		id := t.tr.begin(spRestore, lyMultilevel, 0, 0, -1)
		release := t.tr.operation(id)
		var steps []multilevel.RestoreStep
		im, steps, err = t.hier.RestoreWith(multilevel.RestoreOptions{Workers: defaultWorkers()})
		release()
		t.tr.finish(id, 0)
		info.steps = map[string]int{}
		for _, st := range steps {
			info.steps[st.Tier]++
		}
	} else {
		id := t.tr.begin(spRestore, lyCkpt, 0, 0, -1)
		release := t.tr.operation(id)
		im, err = ckpt.RestoreWith(t.localFS, ckpt.RestoreOptions{})
		release()
		t.tr.finish(id, 0)
	}
	if err != nil {
		return nil, info, err
	}
	info.epoch, info.segments = im.Epoch, im.SegmentsRead
	id := t.tr.begin(spLoadImage, lyApp, 0, 0, -1)
	defer func() { t.tr.finish(id, 0) }()
	region, done, err := freshRegion(size)
	if err != nil {
		return nil, info, err
	}
	defer done()
	buf := region.Bytes()
	for i := 0; i*pageSize < size; i++ {
		copy(buf[i*pageSize:(i+1)*pageSize], im.PageOr(i))
	}
	return buf, info, nil
}

func (t *tracedStack) compact() (aickpt.CompactionResult, error) {
	id := t.tr.begin(spCompact, lyCompact, t.compactFS.tag, 0, -1)
	release := t.tr.operation(id)
	var res compact.Result
	var err error
	if t.compactor != nil {
		res, err = t.compactor.CompactNow()
	} else {
		res, err = compact.RunOnce(t.compactCfg, true)
	}
	release()
	t.tr.finish(id, 0)
	return aickpt.CompactionResult{
		Compacted:      res.Compacted,
		BaseFrom:       res.BaseFrom,
		BaseTo:         res.BaseTo,
		EpochsFolded:   res.EpochsFolded,
		BytesWritten:   res.BytesWritten,
		BytesReclaimed: res.BytesReclaimed,
		FilesRemoved:   res.FilesRemoved,
		LiveSegments:   res.LiveSegments,
	}, err
}

func (t *tracedStack) degrade() error {
	if t.hier == nil {
		return errors.New("benchmark: degrade needs tiers")
	}
	t.nodes[0].Fail()
	t.nodes[1].Fail()
	return t.hier.Local().Wipe()
}

func (t *tracedStack) dedup() (stored, deduped int) {
	var ds ckpt.DedupStats
	if t.hier != nil {
		ds = t.hier.Local().DedupStats()
	} else {
		ds = t.repo.DedupStats()
	}
	return ds.PagesStored, ds.PagesDeduped
}

func (t *tracedStack) close() error {
	err := t.rt.Close()
	if t.compactor != nil {
		t.compactor.Close()
	}
	if t.hier != nil {
		err = errors.Join(err, t.hier.Close())
	}
	return err
}
