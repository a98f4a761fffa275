package cluster

import (
	"fmt"
	"time"

	"repro/internal/multilevel"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Testbed parameters measured in the paper (§4.1).
const (
	// GigabitBandwidth is the measured TCP throughput of the Gigabit
	// Ethernet interconnect on both testbeds (117.5 MB/s).
	GigabitBandwidth = 117.5 * 1e6
	// GigabitLatency is the measured round-trip-ish latency (~0.1 ms).
	GigabitLatency = 100 * time.Microsecond
	// RennesDiskBandwidth is the local SATA disk speed on the Grid'5000
	// Rennes nodes (~55 MB/s).
	RennesDiskBandwidth = 55 * 1e6
)

// NodeSpec describes one compute node of a deployment.
type NodeSpec struct {
	// NIC configures the node's network interface; zero BytesPerSec means
	// no NIC is modeled.
	NIC netsim.LinkConfig
	// Disk configures node-local storage; zero BytesPerSec means none.
	Disk netsim.LinkConfig
}

// Node is a simulated compute node.
type Node struct {
	Index int
	// NIC is shared by all processes of the node, for both application
	// communication and checkpoint traffic to remote storage.
	NIC *netsim.Link
	// Disk is the node-local disk, shared by all processes of the node.
	Disk *netsim.Link
}

// Deployment is a set of nodes plus an optional PVFS-like parallel file
// system shared by all of them.
type Deployment struct {
	Env   *sim.Kernel
	Nodes []*Node
	// PFSServers are the storage-server links of the parallel file
	// system; empty when the deployment uses node-local storage.
	PFSServers []*netsim.Link
}

// PFSSpec describes a parallel file system deployment.
type PFSSpec struct {
	// Servers is the number of storage nodes (the paper reserves 10).
	Servers int
	// ServerBandwidth is each server's sustained write bandwidth
	// (bottlenecked by its local disk).
	ServerBandwidth float64
	// PerRequest is the fixed server-side cost per page write; with 4 KB
	// pages this models the paper's small-write penalty on PVFS.
	PerRequest time.Duration
}

// NewDeployment builds nodes on the given kernel. All nodes share spec.
func NewDeployment(env *sim.Kernel, nodes int, spec NodeSpec, pfs *PFSSpec) *Deployment {
	d := &Deployment{Env: env}
	for i := 0; i < nodes; i++ {
		n := &Node{Index: i}
		if spec.NIC.BytesPerSec > 0 {
			cfg := spec.NIC
			cfg.Name = fmt.Sprintf("node%d-nic", i)
			n.NIC = netsim.NewLink(env, cfg)
		}
		if spec.Disk.BytesPerSec > 0 {
			cfg := spec.Disk
			cfg.Name = fmt.Sprintf("node%d-disk", i)
			n.Disk = netsim.NewLink(env, cfg)
		}
		d.Nodes = append(d.Nodes, n)
	}
	if pfs != nil {
		for s := 0; s < pfs.Servers; s++ {
			d.PFSServers = append(d.PFSServers, netsim.NewLink(env, netsim.LinkConfig{
				Name:        fmt.Sprintf("pfs%d", s),
				BytesPerSec: pfs.ServerBandwidth,
				PerMessage:  pfs.PerRequest,
			}))
		}
	}
	return d
}

// PFSBackend returns a checkpoint store for a process on node: pages cross
// the node NIC, then stripe over the PFS servers.
func (d *Deployment) PFSBackend(node int) storage.Backend {
	if len(d.PFSServers) == 0 {
		panic("cluster: deployment has no PFS")
	}
	return storage.NewSimPFS(d.Nodes[node].NIC, d.PFSServers)
}

// LocalBackend returns a checkpoint store writing to the node's local disk
// (the Shamrock configuration).
func (d *Deployment) LocalBackend(node int) storage.Backend {
	if d.Nodes[node].Disk == nil {
		panic("cluster: node has no local disk")
	}
	return storage.NewSimDisk(d.Nodes[node].Disk)
}

// PeerNodes returns multilevel peer-tier nodes for every deployment node
// except exclude (the checkpointing node itself): shard traffic to a peer
// contends on that peer's NIC with its own application and checkpoint
// traffic. Pass exclude < 0 to include all nodes.
func (d *Deployment) PeerNodes(exclude int) []*multilevel.PeerNode {
	var peers []*multilevel.PeerNode
	for i, n := range d.Nodes {
		if i == exclude {
			continue
		}
		peers = append(peers, multilevel.NewPeerNode(fmt.Sprintf("node%d", i), n.NIC))
	}
	return peers
}

// Exchange models one halo/boundary exchange for a process: bytes out over
// the node NIC (the matching receive is paid by the peer's own send).
func (d *Deployment) Exchange(node int, bytes int64) {
	if d.Nodes[node].NIC != nil {
		d.Nodes[node].NIC.Transfer(bytes)
	}
}
