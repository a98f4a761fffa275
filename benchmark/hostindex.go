package main

import (
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/benchmark/corpus"
	"repro/benchmark/stats"
)

// The sandbox has slow episodes that last from seconds to minutes and come
// in more than one kind. The same commit sealed a sparse epoch in 7.9 ms in
// one hour and 13.4 ms in the next, spent 4.9 and 7.6 CPU seconds per GiB,
// returned from Checkpoint() in 33 and 58 µs; in another episode restores
// fell from 205 to 131 MB/s while the checkpoint path barely moved. A
// timing gated at 25 % cannot live with a host that moves by 70 %, and more
// samples inside a run do not help when the episode outlasts the run.
//
// So every end-to-end timing is reported at the nominal host speed. Between
// timed windows — never inside one — the application thread times two small
// kernels made of stdlib code over fixed bytes, which no change to the
// runtime can move:
//
//   - cpu: DEFLATE of 64 fixed pages (7 ms), cache-resident compute;
//   - bulk: reading an 8 MiB file in page-sized reads into fresh memory and
//     hashing it (FNV-1a), 16 ms of system calls, page faults and copies.
//
// One host-index sample is the geometric mean of the two rates, each as a
// share of its nominal rate on this sandbox. A metric is scaled by the
// median of the samples taken during its own phase: set-up, the application
// loop, each restore phase, the compaction. Over 42 runs of three workloads
// through such episodes the quartile spread of every timing fell — e.g.
// l1_durable_ms 16.9 → 6.3 % (flate-dedup-burst) and 14.5 → 4.5 %
// (sparse-chain), cpu_s_per_gib 13.4 → 4.9 % (tiers-failover), compacted
// restores 25.4 → 8.1 % — except two that rose within their noise
// (sparse-chain's uncompacted restore 8.9 → 14.2 %, tiers-failover's
// app_cost 7.1 → 9.4 %). Either kernel alone did worse than the pair on
// most metrics: the episodes differ in what they slow.
const (
	nominalCPUMBs  = 40.0  // DEFLATE BestSpeed of smooth pages, one core
	nominalBulkMBs = 520.0 // page-sized reads + FNV-1a into fresh memory
	bulkPages      = 2048
)

// hostIndex samples the host's speed, by phase.
type hostIndex struct {
	deflate  *deflater
	cpuPages []byte
	bulkPath string
	samples  map[string][]float64
	err      error // the first failure to read the bulk file
}

// newHostIndex writes the bulk kernel's file into dir.
func newHostIndex(dir string) (*hostIndex, error) {
	fixed := corpus.Corpus{Seed: 1, PageSize: pageSize, Mix: corpus.AllStencil}
	h := &hostIndex{
		deflate:  newDeflater(),
		cpuPages: corpusPages(fixed, 64),
		bulkPath: filepath.Join(dir, "host-index"),
		samples:  map[string][]float64{},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return h, os.WriteFile(h.bulkPath, corpusPages(fixed, bulkPages), 0o644)
}

// sample takes one host-index sample for a phase.
func (h *hostIndex) sample(phase string) {
	start := time.Now()
	h.deflate.pages(h.cpuPages)
	cpu := float64(len(h.cpuPages)) / 1e6 / time.Since(start).Seconds()

	start = time.Now()
	if err := h.readBulk(); err != nil {
		if h.err == nil {
			h.err = err
		}
		return
	}
	bulk := float64(bulkPages*pageSize) / 1e6 / time.Since(start).Seconds()
	h.samples[phase] = append(h.samples[phase], math.Sqrt(cpu/nominalCPUMBs*bulk/nominalBulkMBs))
}

func (h *hostIndex) readBulk() error {
	f, err := os.Open(h.bulkPath)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, bulkPages*pageSize)
	sum := fnv.New64a()
	for off := 0; off < len(buf); off += pageSize {
		page := buf[off : off+pageSize]
		if _, err := io.ReadFull(f, page); err != nil {
			return err
		}
		sum.Write(page)
	}
	return nil
}

// speed is the host's speed during a phase as a share of nominal: 0.6
// means it ran at 60 % of its usual speed. Multiply a time by it, divide a
// rate by it.
func (h *hostIndex) speed(phase string) float64 {
	return stats.Median(h.samples[phase])
}
