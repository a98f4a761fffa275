package main

import (
	"bytes"
	"compress/flate"
	"fmt"
	"os"
	"path/filepath"
	"time"

	aickpt "repro"
	"repro/benchmark/corpus"
	"repro/benchmark/stats"
	"repro/internal/ckpt"
	"repro/internal/compress"
	"repro/internal/erasure"
	"repro/internal/util"
)

// replayPages is the slice of the corpus the kernel replays run over: 8 MiB
// of the workload's own page mix, enough for a steady rate and small enough
// to stay out of the run's time budget.
const replayPages = 2048

// timeRate runs f, which processes n bytes per call, until it has run for
// at least 40 ms and three times, and returns the median rate in MB/s.
func timeRate(n int, f func()) float64 {
	var rates []float64
	deadline := time.Now().Add(40 * time.Millisecond)
	for len(rates) < 3 || time.Now().Before(deadline) {
		start := time.Now()
		f()
		rates = append(rates, float64(n)/1e6/time.Since(start).Seconds())
	}
	return stats.Median(rates)
}

// corpusPages returns n pages of c at version 1, back to back.
func corpusPages(c corpus.Corpus, n int) []byte {
	buf := make([]byte, n*pageSize)
	for p := 0; p < n; p++ {
		c.Fill(buf[p*pageSize:(p+1)*pageSize], p, 1)
	}
	return buf
}

func eachPage(buf []byte, f func(page []byte)) {
	for off := 0; off < len(buf); off += pageSize {
		f(buf[off : off+pageSize])
	}
}

// rooflines measures what the machine gives with no runtime in the way:
// memory copy, stdlib DEFLATE at the codec's level over the workload's
// pages, and raw os-level write+fsync and read in the data directory. They
// run beside every workload, so a slow episode of the host shows in them
// and can be told from a regression.
func rooflines(c corpus.Corpus, dir string, pages int, v values) error {
	src := corpusPages(c, min(pages, replayPages))
	dst := make([]byte, len(src))
	v.set("roofline.memcpy_mb_s", timeRate(len(src), func() { copy(dst, src) }))

	deflate := newDeflater()
	v.set("roofline.flate_mb_s", timeRate(len(src), func() { deflate.pages(src) }))

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	big := filepath.Join(dir, "roofline-64m")
	for _, f := range []struct {
		metric string
		path   string
		pages  int
		reps   int
	}{
		{"roofline.write_fsync_mb_s.64m", big, pages, 2},
		{"roofline.write_fsync_mb_s.2m", filepath.Join(dir, "roofline-2m"), max(1, pages/32), 7},
	} {
		var rates []float64
		for i := 0; i < f.reps; i++ {
			start := time.Now()
			if err := writeSynced(f.path, src, f.pages*pageSize); err != nil {
				return err
			}
			rates = append(rates, float64(f.pages*pageSize)/1e6/time.Since(start).Seconds())
		}
		v.set(f.metric, stats.Median(rates))
	}
	var readErr error
	v.set("roofline.read_mb_s", timeRate(pages*pageSize, func() {
		if _, err := os.ReadFile(big); err != nil {
			readErr = err
		}
	}))
	return readErr
}

// deflater is stdlib DEFLATE at the codec's level, a page at a time: the
// roofline of the compress layer, and the kernel the host index times.
type deflater struct {
	w    *flate.Writer
	sink bytes.Buffer
}

func newDeflater() *deflater {
	d := &deflater{}
	w, err := flate.NewWriter(&d.sink, flate.BestSpeed)
	if err != nil {
		panic(err) // only an invalid level fails
	}
	d.w = w
	return d
}

func (d *deflater) pages(src []byte) {
	eachPage(src, func(page []byte) {
		d.sink.Reset()
		d.w.Reset(&d.sink)
		_, _ = d.w.Write(page) // a bytes.Buffer does not fail
		_ = d.w.Close()
	})
}

// writeSynced writes size bytes of src (repeated) to path and fsyncs.
func writeSynced(path string, src []byte, size int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for size > 0 {
		n, err := f.Write(src[:min(size, len(src))])
		if err != nil {
			f.Close()
			return err
		}
		size -= n
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// kernelReplays times each layer's exported functions directly, over the
// workload's own pages.
func kernelReplays(c corpus.Corpus, v values) error {
	pages := corpusPages(c, replayPages)

	var hash uint64
	v.set("util.fnv64a_mb_s", timeRate(len(pages), func() {
		eachPage(pages, func(page []byte) { hash ^= util.Fnv64a(page) })
	}))

	scratch := make([]byte, 0, pageSize+64)
	for _, kind := range []corpus.Kind{corpus.Stencil, corpus.Random, corpus.Zero} {
		var mix corpus.Mix
		mix[kind] = 8
		in := corpusPages(corpus.Corpus{Seed: c.Seed, PageSize: pageSize, Mix: mix}, replayPages/4)
		v.set("compress.encode_mb_s."+kind.String(), timeRate(len(in), func() {
			eachPage(in, func(page []byte) { scratch = compress.EncodeInto(compress.Flate, page, scratch) })
		}))
	}
	var blobs [][]byte
	encoded := 0
	eachPage(pages, func(page []byte) {
		blob := compress.Encode(compress.Flate, page)
		blobs = append(blobs, blob)
		encoded += len(blob)
	})
	v.set("compress.ratio", float64(encoded)/float64(len(pages)))
	var decodeErr error
	out := make([]byte, 0, pageSize)
	v.set("compress.decode_mb_s", timeRate(len(pages), func() {
		for _, blob := range blobs {
			if _, err := compress.DecodeInto(blob, out, pageSize); err != nil {
				decodeErr = err
			}
		}
	}))
	if decodeErr != nil {
		return fmt.Errorf("compress replay: %w", decodeErr)
	}

	coder := erasure.New(peerData, peerParity)
	var shards [][][]byte
	v.set("erasure.encode_mb_s", timeRate(len(pages), func() {
		shards = shards[:0]
		eachPage(pages, func(page []byte) { shards = append(shards, coder.Encode(page)) })
	}))
	for _, s := range shards {
		s[0], s[1] = nil, nil // the two data shards the failed peers held
	}
	v.set("erasure.decode_mb_s", timeRate(len(pages), func() {
		for _, s := range shards {
			if _, err := coder.Decode(s, pageSize); err != nil {
				decodeErr = err
			}
		}
	}))
	if decodeErr != nil {
		return fmt.Errorf("erasure replay: %w", decodeErr)
	}
	acc := make([]byte, pageSize)
	v.set("erasure.muladd_mb_s", timeRate(len(pages), func() {
		eachPage(pages, func(page []byte) { coder.MulAdd(acc, page, 0x53) })
	}))
	v.set("erasure.accel", 0)
	if erasure.AccelAvailable() {
		v.set("erasure.accel", 1)
	}
	return coreReplay(c, v)
}

// coreReplay runs pagemem and core alone, over a backend that drops every
// page: what a write costs on an unprotected page, what the first write
// after a finished checkpoint costs, and how many pages per second the
// commit pipeline pulls, copies and hands off when storage is free.
func coreReplay(c corpus.Corpus, v values) error {
	rt, err := aickpt.New(aickpt.Options{Store: nullStore{}, PageSize: pageSize, CommitWorkers: defaultWorkers()})
	if err != nil {
		return err
	}
	defer rt.Close()
	region := rt.MallocProtected(replayPages * pageSize)
	pages := corpusPages(c, replayPages)
	writeAll := func() float64 {
		start := time.Now()
		for p := 0; p < replayPages; p++ {
			region.Write(p*pageSize, pages[p*pageSize:(p+1)*pageSize])
		}
		return float64(time.Since(start).Nanoseconds()) / replayPages
	}
	writeAll()
	for i := 0; i < 9; i++ {
		start := time.Now()
		rt.Checkpoint()
		rt.WaitIdle()
		v["core.nullstore_pages_per_s"] = append(v["core.nullstore_pages_per_s"], replayPages/time.Since(start).Seconds())
		v["pagemem.first_write_ns"] = append(v["pagemem.first_write_ns"], writeAll())
		v["pagemem.write_unprotected_ns"] = append(v["pagemem.write_unprotected_ns"], writeAll())
	}
	return rt.Err()
}

// loadChainReplay times ckpt.LoadChain on a directory as a restore finds it.
func loadChainReplay(dir string) (float64, error) {
	fs, err := ckpt.NewOSFS(dir)
	if err != nil {
		return 0, err
	}
	var took []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := ckpt.LoadChain(fs); err != nil {
			return 0, err
		}
		took = append(took, ms(time.Since(start)))
	}
	return stats.Median(took), nil
}

// obsOverhead measures what the observability layer costs a commit: two
// runtimes over an eighth of the flate-dedup-burst region, one with
// DisableMetrics and one without, take the same epochs turn by turn (who
// goes first alternates), and the result is the median over epochs of the
// l1_durable ratio on ÷ off, as a percentage over 1. Interleaving keeps a
// slow episode of the host out of the ratio: it slows both sides of a pair.
func obsOverhead(cfg passConfig) (float64, error) {
	const epochs = 24
	def := findWorkload("flate-dedup-burst")
	pages := max(16, def.pages/cfg.scale/8)
	c := corpus.Corpus{Seed: cfg.seed, PageSize: pageSize, Mix: def.mix}
	var sides [2]struct {
		st     stack
		region *aickpt.Region
	}
	for i := range sides {
		spec := def.spec
		spec.dir = filepath.Join(cfg.dir, fmt.Sprintf("obs-%d", i))
		spec.noMetrics = i == 0
		st, err := newPublicStack(spec)
		if err != nil {
			return 0, err
		}
		defer st.close()
		sides[i].st, sides[i].region = st, st.runtime().MallocProtected(pages*pageSize)
	}
	buf := make([]byte, pageSize)
	var ratios []float64
	for e := 0; e <= epochs; e++ {
		var sealed [2]float64
		for k := range sides {
			i := (k + e) % 2
			rt := sides[i].st.runtime()
			for p := 0; p < pages; p++ {
				c.Fill(buf, p, uint32(e+1))
				sides[i].region.Write(p*pageSize, buf)
			}
			start := time.Now()
			rt.Checkpoint()
			rt.WaitIdle()
			sealed[i] = time.Since(start).Seconds()
			if err := rt.Err(); err != nil {
				return 0, err
			}
		}
		if e > 0 { // the first epoch warms both sides up
			ratios = append(ratios, sealed[1]/sealed[0])
		}
	}
	return 100 * (stats.Median(ratios) - 1), nil
}
