package faultfs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/ckpt"
)

func write(t *testing.T, fs ckpt.FS, name, content string) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	if _, err := f.Write([]byte(content)); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", name, err)
	}
}

func TestPublishOnClose(t *testing.T) {
	inner := &ckpt.MemFS{}
	fs := Wrap(inner, Plan{})
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("hello"))
	if _, err := inner.Open("a"); err == nil {
		t.Fatal("file visible on inner FS before Close")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(inner, "a")
	if err != nil || string(got) != "hello" {
		t.Fatalf("inner a = %q, %v", got, err)
	}
	if fs.Ops() != 2 { // Create + Close
		t.Fatalf("ops = %d, want 2", fs.Ops())
	}
}

func TestCrashStopsEverything(t *testing.T) {
	inner := &ckpt.MemFS{}
	fs := Wrap(inner, Plan{CrashAtOp: 4}) // a's Create+Close, b's Create, crash at b's Close
	write(t, fs, "a", "one")
	f, _ := fs.Create("b")
	f.Write([]byte("two"))
	if err := f.Close(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("close at crash point: %v, want ErrCrashed", err)
	}
	if !fs.Crashed() {
		t.Fatal("not crashed")
	}
	// The crashing publish never reached the inner FS (atomic medium).
	if _, err := inner.Open("b"); err == nil {
		t.Fatal("crashed publish is visible")
	}
	// Everything is dead now, reads included.
	if _, err := fs.Open("a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Open: %v", err)
	}
	if _, err := fs.List(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash List: %v", err)
	}
	if err := fs.Remove("a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Remove: %v", err)
	}
	if _, err := fs.Create("c"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Create: %v", err)
	}
	// But the pre-crash state survives on the inner FS.
	if got, _ := ReadFile(inner, "a"); string(got) != "one" {
		t.Fatalf("inner a = %q", got)
	}
}

func TestTornPublish(t *testing.T) {
	inner := &ckpt.MemFS{}
	fs := Wrap(inner, Plan{CrashAtOp: 2, Torn: func(n int) int { return n - 2 }})
	f, _ := fs.Create("a")
	f.Write([]byte("abcdef"))
	if err := f.Close(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("close: %v", err)
	}
	got, err := ReadFile(inner, "a")
	if err != nil || string(got) != "abcd" {
		t.Fatalf("torn file = %q, %v", got, err)
	}
}

func TestTransientFailure(t *testing.T) {
	inner := &ckpt.MemFS{}
	boom := fmt.Errorf("transient")
	fs := Wrap(inner, Plan{FailOps: map[int64]error{2: boom}})
	f, _ := fs.Create("a")
	f.Write([]byte("x"))
	if err := f.Close(); !errors.Is(err, boom) {
		t.Fatalf("close: %v, want transient", err)
	}
	// The op was consumed but the FS keeps running; a retry succeeds.
	write(t, fs, "a", "x")
	if got, _ := ReadFile(inner, "a"); string(got) != "x" {
		t.Fatalf("inner a = %q", got)
	}
}

func TestAbortConsumesNoOp(t *testing.T) {
	inner := &ckpt.MemFS{}
	fs := Wrap(inner, Plan{})
	f, _ := fs.Create("a")
	f.Write([]byte("x"))
	ckpt.Discard(f)
	if fs.Ops() != 1 { // only the Create counted
		t.Fatalf("ops = %d, want 1", fs.Ops())
	}
	if _, err := inner.Open("a"); err == nil {
		t.Fatal("aborted file was published")
	}
}

func TestFlipBitAndTruncate(t *testing.T) {
	fs := &ckpt.MemFS{}
	write(t, fs, "a", "\x00\x00")
	if err := FlipBit(fs, "a", 9); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadFile(fs, "a"); got[0] != 0 || got[1] != 2 {
		t.Fatalf("flipped = %v", got)
	}
	if err := TruncateFile(fs, "a", 1); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadFile(fs, "a"); len(got) != 1 {
		t.Fatalf("truncated = %v", got)
	}
	// Truncate past the end is a no-op.
	if err := TruncateFile(fs, "a", 99); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadFile(fs, "a"); len(got) != 1 {
		t.Fatalf("over-truncated = %v", got)
	}
}

// TestRepositoryThroughFaultFS drives the real repository over a crashing
// FS: the epoch sealed before the crash point survives, the epoch torn by
// it is invisible, and a reopen on the inner FS restores the sealed image.
func TestRepositoryThroughFaultFS(t *testing.T) {
	inner := &ckpt.MemFS{}
	// Epoch 1: segment Create (1), manifest Create+Close... count the ops
	// of a clean run first.
	probe := Wrap(&ckpt.MemFS{}, Plan{})
	seal := func(r *ckpt.Repository, epoch uint64, v byte) error {
		page := make([]byte, 32)
		for i := range page {
			page[i] = v
		}
		if err := r.WritePage(epoch, 0, page, 32); err != nil {
			return err
		}
		return r.EndEpoch(epoch)
	}
	pr := ckpt.NewRepository(probe, 32)
	if err := seal(pr, 1, 1); err != nil {
		t.Fatal(err)
	}
	opsPerEpoch := probe.Ops()
	if err := seal(pr, 2, 2); err != nil {
		t.Fatal(err)
	}
	opsSecond := probe.Ops() - opsPerEpoch
	// Crash on the last op of epoch 2 (its manifest publish).
	fs := Wrap(inner, Plan{CrashAtOp: opsPerEpoch + opsSecond})
	r := ckpt.NewRepository(fs, 32)
	if err := seal(r, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := seal(r, 2, 2); err == nil {
		t.Fatal("epoch 2 sealed through the crash")
	}
	im, err := ckpt.Restore(inner)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := im.Pages.Get(0); im.Epoch != 1 || got[0] != 1 {
		t.Fatalf("restored epoch %d page %v", im.Epoch, got[:4])
	}
}
