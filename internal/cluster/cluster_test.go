package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestBarrierReleasesTogether(t *testing.T) {
	k := sim.NewKernel()
	const n = 5
	bar := NewBarrier(k, n)
	var releases []time.Duration
	for i := 0; i < n; i++ {
		i := i
		k.Go(fmt.Sprintf("p%d", i), func() {
			k.Sleep(time.Duration(i) * time.Millisecond)
			bar.Wait()
			releases = append(releases, k.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range releases {
		if r != 4*time.Millisecond {
			t.Errorf("release at %v, want 4ms (slowest arrival)", r)
		}
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	k := sim.NewKernel()
	const n, rounds = 3, 4
	bar := NewBarrier(k, n)
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		k.Go(fmt.Sprintf("p%d", i), func() {
			for r := 0; r < rounds; r++ {
				k.Sleep(time.Duration(i+1) * time.Millisecond)
				bar.Wait()
				counts[i]++
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != rounds {
			t.Errorf("proc %d completed %d rounds", i, c)
		}
	}
	if k.Now() != rounds*3*time.Millisecond {
		t.Errorf("total time %v, want %v", k.Now(), rounds*3*time.Millisecond)
	}
}

func TestDeploymentPFSStriping(t *testing.T) {
	k := sim.NewKernel()
	d := NewDeployment(k, 2, NodeSpec{
		NIC: netsim.LinkConfig{BytesPerSec: 1e9},
	}, &PFSSpec{Servers: 4, ServerBandwidth: 1e9})
	if len(d.PFSServers) != 4 || len(d.Nodes) != 2 {
		t.Fatalf("deployment shape: %d servers, %d nodes", len(d.PFSServers), len(d.Nodes))
	}
	be := d.PFSBackend(0)
	k.Go("writer", func() {
		for p := 0; p < 8; p++ {
			if err := be.WritePage(1, p, nil, 4096); err != nil {
				t.Errorf("WritePage: %v", err)
			}
		}
		if err := be.EndEpoch(1); err != nil {
			t.Errorf("EndEpoch: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 8 pages striped over 4 servers: 2 messages each.
	for i, srv := range d.PFSServers {
		if st := srv.Stats(); st.Messages != 2 {
			t.Errorf("server %d got %d messages, want 2", i, st.Messages)
		}
	}
	// All pages crossed the node NIC.
	if st := d.Nodes[0].NIC.Stats(); st.Messages != 8 {
		t.Errorf("NIC messages = %d, want 8", st.Messages)
	}
}

func TestDeploymentLocalDiskShared(t *testing.T) {
	k := sim.NewKernel()
	d := NewDeployment(k, 1, NodeSpec{
		Disk: netsim.LinkConfig{BytesPerSec: 4096}, // 1 page/s
	}, nil)
	aDone, bDone := time.Duration(0), time.Duration(0)
	k.Go("a", func() {
		d.LocalBackend(0).WritePage(1, 0, nil, 4096)
		aDone = k.Now()
	})
	k.Go("b", func() {
		d.LocalBackend(0).WritePage(1, 1, nil, 4096)
		bDone = k.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The two writes share the disk: 1s and 2s.
	if aDone != time.Second || bDone != 2*time.Second {
		t.Errorf("aDone=%v bDone=%v, want 1s and 2s", aDone, bDone)
	}
}

func TestDeploymentPanicsWithoutResources(t *testing.T) {
	k := sim.NewKernel()
	d := NewDeployment(k, 1, NodeSpec{}, nil)
	for _, f := range []func(){
		func() { d.PFSBackend(0) },
		func() { d.LocalBackend(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for missing resource")
				}
			}()
			f()
		}()
	}
	// Exchange without NIC is a harmless no-op.
	d.Exchange(0, 100)
}
