package aickpt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// corruptFile flips one byte of a repository file on disk.
func corruptFile(t *testing.T, path string, off int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off >= len(data) {
		t.Fatalf("corrupt offset %d beyond %q (%d bytes)", off, path, len(data))
	}
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func checkpointPages(t *testing.T, rt *Runtime, r *Region, pages, version int) {
	t.Helper()
	buf := make([]byte, rt.PageSize())
	for p := 0; p < pages; p++ {
		for i := range buf {
			buf[i] = byte(p*13 + version*29 + i)
		}
		r.Write(p*rt.PageSize(), buf)
	}
	rt.Checkpoint()
	rt.WaitIdle()
}

// TestHierarchyScrubRepairsFromLowerTier drives the full public loop: a
// tiered runtime with a directory-backed L1, silent corruption of a sealed
// segment on disk, and a Scrub that detects it and rebuilds it from the
// lower tier.
func TestHierarchyScrubRepairsFromLowerTier(t *testing.T) {
	dir := t.TempDir()
	rt, err := New(Options{
		PageSize: 4096,
		Tiers: []TierSpec{
			{Kind: TierLocal, Dir: dir},
			{Kind: TierPFS}, // in-memory lower tier
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rt.MallocProtected(4 * 4096)
	checkpointPages(t, rt, r, 4, 1)
	checkpointPages(t, rt, r, 2, 2)
	rt.Hierarchy().WaitDrained()

	im, _, err := rt.Hierarchy().Restore()
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, 4)
	for p := range want {
		want[p] = append([]byte(nil), im.Page(p)...)
	}

	// Silent corruption in a sealed epoch's payload bytes.
	corruptFile(t, filepath.Join(dir, "epoch-00000001.pages"), 100)

	rep, err := rt.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Repaired != 1 || rep.Unrepaired != 0 {
		t.Fatalf("report = %+v, want 1 corrupt / 1 repaired", rep)
	}
	if len(rep.Entries) == 0 || !strings.Contains(rep.Entries[0].Action, "repaired from pfs") {
		t.Fatalf("entries = %+v, want a repair from the pfs tier", rep.Entries)
	}
	// Clean after repair, and the image is unchanged.
	if health, err := Verify(dir); err != nil {
		t.Fatal(err)
	} else {
		for _, h := range health {
			if h.Damaged {
				t.Errorf("entry %s still damaged after scrub: %s", h.Manifest, h.Detail)
			}
		}
	}
	im2, _, err := rt.Hierarchy().Restore()
	if err != nil {
		t.Fatal(err)
	}
	for p := range want {
		if !bytes.Equal(im2.Page(p), want[p]) {
			t.Errorf("page %d differs after repair", p)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeScrubVerifyOnlyWithDir: without redundant tiers scrub
// detects and reports damage but repairs nothing.
func TestRuntimeScrubVerifyOnlyWithDir(t *testing.T) {
	dir := t.TempDir()
	rt, err := New(Options{PageSize: 4096, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r := rt.MallocProtected(2 * 4096)
	checkpointPages(t, rt, r, 2, 1)
	checkpointPages(t, rt, r, 1, 2)

	if rep, err := rt.Scrub(); err != nil || rep.Corrupt != 0 || rep.Checked == 0 {
		t.Fatalf("clean scrub = %+v, %v", rep, err)
	}
	corruptFile(t, filepath.Join(dir, "epoch-00000001.pages"), 64)
	rep, err := rt.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Unrepaired != 1 || rep.Repaired != 0 {
		t.Fatalf("report = %+v, want 1 corrupt / 1 unrepaired", rep)
	}
	// Standalone Verify sees the same damage.
	health, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for _, h := range health {
		if h.Damaged {
			damaged++
			if h.Status != HealthSegmentCorrupt {
				t.Errorf("status = %q, want %q", h.Status, HealthSegmentCorrupt)
			}
		}
	}
	if damaged != 1 {
		t.Errorf("Verify found %d damaged entries, want 1", damaged)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScrubEndpoint covers POST /scrub on the debug server: method
// enforcement, a clean scrub report, and the unsupported path for custom
// stores.
func TestScrubEndpoint(t *testing.T) {
	rt, err := New(Options{
		PageSize:  4096,
		Tiers:     []TierSpec{{Kind: TierLocal}, {Kind: TierPFS}},
		DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rt.MallocProtected(2 * 4096)
	checkpointPages(t, rt, r, 2, 1)
	rt.Hierarchy().WaitDrained()
	client := &http.Client{Timeout: 10 * time.Second}
	url := "http://" + rt.DebugAddr() + "/scrub"

	if resp, err := client.Get(url); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /scrub = %s, want 405 (scrub mutates)", resp.Status)
		}
	}
	resp, err := client.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /scrub = %s: %s", resp.Status, body)
	}
	if !strings.Contains(string(body), `"checked"`) {
		t.Errorf("scrub response not a report: %s", body)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	// A custom Store has nothing to scrub.
	rt2, err := New(Options{PageSize: 4096, Store: sinkStore{}, DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := client.Post("http://"+rt2.DebugAddr()+"/scrub", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotImplemented {
		t.Errorf("POST /scrub with a custom store = %s, want 501", resp2.Status)
	}
	if _, err := rt2.Scrub(); err == nil {
		t.Error("Runtime.Scrub with a custom store should error")
	}
	if err := rt2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadersLeaveALiveFlushAlone: Verify, Restore and the Inspect views
// may run against the directory of a live runtime. Its staging file — the
// segment of the epoch being flushed — must survive them, so the epoch
// still publishes, Err stays nil and the chain restores.
func TestReadersLeaveALiveFlushAlone(t *testing.T) {
	const pages, pageSize = 4096, 4096
	dir := t.TempDir()
	rt, err := New(Options{PageSize: pageSize, Dir: dir, Compression: CompressionFlate})
	if err != nil {
		t.Fatal(err)
	}
	r := rt.MallocProtected(pages * pageSize)
	// look reports whether dir holds a staging file, and whether epoch's
	// manifest is published (its flush is over).
	look := func(epoch int) (staged, sealed bool) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			staged = staged || strings.HasPrefix(e.Name(), ".tmp-")
			sealed = sealed || e.Name() == fmt.Sprintf("epoch-%08d.json", epoch)
		}
		return staged, sealed
	}
	caught := false
	for epoch := 1; epoch <= 6 && !caught; epoch++ {
		buf := make([]byte, pageSize)
		for p := 0; p < pages; p++ {
			for i := range buf {
				buf[i] = byte(p*31 + epoch*7 + i*i)
			}
			r.Write(p*pageSize, buf)
		}
		rt.Checkpoint()
		// Epoch 1 only gives the readers a sealed chain to read.
		for epoch > 1 {
			staged, sealed := look(epoch)
			if sealed {
				break
			}
			if !staged {
				continue
			}
			caught = true // the first reader opens the directory inside the flush
			if _, err := Verify(dir); err != nil {
				t.Fatal(err)
			}
			if _, err := Restore(dir); err != nil {
				t.Fatal(err)
			}
			break
		}
		rt.WaitIdle()
		if err := rt.Err(); err != nil {
			t.Fatalf("epoch %d: a reader broke the flush: %v", epoch, err)
		}
	}
	if !caught {
		t.Fatal("never saw a staging file while a flush was in flight")
	}
	want := append([]byte(nil), r.Bytes()...)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	im, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		if !bytes.Equal(im.Page(p), want[p*pageSize:(p+1)*pageSize]) {
			t.Fatalf("page %d differs after restore", p)
		}
	}
}

// TestReadersRejectAMissingDirectory: a typo'd path is an error, and no
// read-only entry point leaves a directory behind.
func TestReadersRejectAMissingDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "no-such")
	for name, open := range map[string]func() error{
		"Verify":       func() error { _, err := Verify(dir); return err },
		"Restore":      func() error { _, err := Restore(dir); return err },
		"InspectTiers": func() error { _, err := InspectTiers(dir); return err },
	} {
		if err := open(); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s(missing dir) = %v, want a not-exist error", name, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("%s created the directory it was asked to read", name)
		}
	}
}
