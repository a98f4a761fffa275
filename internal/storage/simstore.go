package storage

import (
	"repro/internal/netsim"
)

// SimDisk models a node-local disk: every page write serializes on the
// disk's link (bandwidth + per-request overhead). All processes of a node
// share the same SimDisk, so their checkpoint streams contend — this is the
// Shamrock/MILC configuration of the paper. Concurrent WritePage calls are
// safe: all mutable state (queueing and usage counters) lives in the Link,
// which guards it with its Env mutex.
type SimDisk struct {
	link *netsim.Link
	// Next optionally receives the page after its cost is modeled, so a
	// simulation can also persist real bytes (e.g. into a repository).
	Next Backend
}

// NewSimDisk returns a disk backed by the given link.
func NewSimDisk(link *netsim.Link) *SimDisk { return &SimDisk{link: link} }

// WritePage implements Backend.
func (d *SimDisk) WritePage(epoch uint64, page int, data []byte, size int) error {
	d.link.Transfer(int64(size))
	if d.Next != nil {
		return d.Next.WritePage(epoch, page, data, size)
	}
	return nil
}

// EndEpoch implements Backend.
func (d *SimDisk) EndEpoch(epoch uint64) error {
	if d.Next != nil {
		return d.Next.EndEpoch(epoch)
	}
	return nil
}

// ReadPage implements PageReader: reads occupy the disk link exactly like
// writes (the medium is symmetric at this model's granularity).
func (d *SimDisk) ReadPage(epoch uint64, page int, size int) error {
	d.link.Transfer(int64(size))
	return nil
}

// SimPFS models a PVFS-like parallel file system: a page write first
// serializes on the writing node's NIC (shared with application traffic),
// then on one of the storage servers, selected by striping the page index.
// Per-request overhead on the servers reproduces the paper's small-write
// penalty: at 4 KB pages the request cost dominates, so server pressure
// grows with the process count — the effect behind the sharp sync curve in
// Figure 3(a). This is the Grid'5000/CM1 configuration.
//
// Striping is a pure function of the page index, so concurrent WritePage
// calls share no mutable state beyond the links, which serialize access
// internally — parallel committer workers writing different pages occupy
// different servers concurrently, which is exactly how a striped PFS
// aggregates bandwidth.
type SimPFS struct {
	nic     *netsim.Link // may be nil (no client-side NIC modeled)
	servers []*netsim.Link
}

// NewSimPFS returns a parallel file system client. nic may be nil; servers
// must be non-empty and are shared across all clients of the deployment.
func NewSimPFS(nic *netsim.Link, servers []*netsim.Link) *SimPFS {
	if len(servers) == 0 {
		panic("storage: SimPFS needs at least one server")
	}
	return &SimPFS{nic: nic, servers: servers}
}

// WritePage implements Backend.
func (p *SimPFS) WritePage(epoch uint64, page int, data []byte, size int) error {
	if p.nic != nil {
		p.nic.Transfer(int64(size))
	}
	srv := p.servers[page%len(p.servers)]
	srv.Transfer(int64(size))
	return nil
}

// EndEpoch implements Backend.
func (p *SimPFS) EndEpoch(epoch uint64) error { return nil }

// ReadPage implements PageReader: a read serializes on the client NIC and
// the page's stripe server just like a write, so concurrent restore
// readers touching different pages aggregate server bandwidth the same way
// parallel writers do.
func (p *SimPFS) ReadPage(epoch uint64, page int, size int) error {
	if p.nic != nil {
		p.nic.Transfer(int64(size))
	}
	p.servers[page%len(p.servers)].Transfer(int64(size))
	return nil
}
