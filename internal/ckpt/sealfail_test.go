package ckpt_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/faultfs"
)

// TestSealFailureLeavesNoOpenEpoch is the regression table for a transient
// failure anywhere in an epoch's four mutating operations — segment create,
// segment publish, manifest create, manifest publish — followed by either
// of the two things a caller does next: store the same epoch again (a tier
// drain's retry) or go on to the next epoch (the committer). Before the
// failed seal discarded the epoch, op 2 + retry published a manifest whose
// segment did not exist: the retry dedup'ed every page against the failed
// attempt's own pending entries and reported success.
func TestSealFailureLeavesNoOpenEpoch(t *testing.T) {
	const pageSize = 64
	fill := func(p, v int) []byte {
		return bytes.Repeat([]byte{byte(p*16 + v)}, pageSize)
	}
	type write struct{ page, version int }
	// store writes one whole epoch the way LocalTier.Store does: stop at the
	// first page that fails, seal only when every page went in.
	store := func(r *ckpt.Repository, epoch uint64, pages []write) error {
		for _, w := range pages {
			if err := r.WritePage(epoch, w.page, fill(w.page, w.version), pageSize); err != nil {
				return err
			}
		}
		return r.EndEpoch(epoch)
	}
	epoch1 := []write{{0, 1}, {1, 1}}
	// Page 1 repeats epoch 1 (a dedup ref), pages 0 and 2 are new records.
	epoch2 := []write{{0, 2}, {1, 1}, {2, 2}}
	// Page 2 repeats what epoch 2 wrote: a ref when epoch 2 sealed, a record
	// when it did not — never a ref into an epoch that does not exist.
	epoch3 := []write{{0, 3}, {2, 2}}

	for failOp := int64(1); failOp <= 4; failOp++ {
		for _, retry := range []bool{true, false} {
			t.Run(fmt.Sprintf("op%d/retry=%v", failOp, retry), func(t *testing.T) {
				inner := &ckpt.MemFS{}
				injected := errors.New("injected transient failure")
				// Epoch 1 takes ops 1-4; failOp counts into epoch 2.
				fs := faultfs.Wrap(inner, faultfs.Plan{FailOps: map[int64]error{4 + failOp: injected}})
				r := ckpt.NewRepository(fs, pageSize)
				acked := map[int]int{} // page -> version of every acknowledged write
				sealed := 0
				seal := func(epoch uint64, pages []write) error {
					err := store(r, epoch, pages)
					if err == nil {
						sealed++
						for _, w := range pages {
							acked[w.page] = w.version
						}
					}
					return err
				}
				if err := seal(1, epoch1); err != nil {
					t.Fatal(err)
				}
				if err := seal(2, epoch2); !errors.Is(err, injected) {
					t.Fatalf("epoch 2 with op %d failing: %v", failOp, err)
				}
				if retry {
					if err := seal(2, epoch2); err != nil {
						t.Fatalf("retry of epoch 2: %v", err)
					}
				} else {
					// A failed WritePage leaves the epoch to its caller; a
					// failed EndEpoch has already discarded it.
					r.Abort()
				}
				if err := seal(3, epoch3); err != nil {
					t.Fatalf("epoch 3: %v", err)
				}

				ch, err := ckpt.LoadChain(inner)
				if err != nil {
					t.Fatalf("strict chain load: %v", err)
				}
				if len(ch.Epochs) != sealed {
					t.Fatalf("chain holds %d epochs, %d were acknowledged", len(ch.Epochs), sealed)
				}
				var want ckpt.DedupStats
				for _, m := range ch.Epochs {
					want.PagesStored += m.PageCount
					want.BytesStored += int64(m.PageCount) * pageSize
					want.PagesDeduped += len(m.Refs)
					want.BytesDeduped += int64(len(m.Refs)) * pageSize
					for _, ref := range m.Refs {
						if ref.Epoch >= m.Epoch {
							t.Errorf("epoch %d refers page %d to epoch %d", m.Epoch, ref.Page, ref.Epoch)
						}
					}
				}
				if got := r.DedupStats(); got != want {
					t.Errorf("DedupStats %+v, the sealed manifests add up to %+v", got, want)
				}
				health, err := ckpt.VerifyChain(inner)
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range health {
					if h.Status != ckpt.StatusOK {
						t.Errorf("%s: %s (%s)", h.Manifest, h.Status, h.Detail)
					}
				}
				im, err := ckpt.Restore(inner)
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				if im.Epoch != 3 || im.Pages.Len() != len(acked) {
					t.Fatalf("restored epoch %d with %d pages, want epoch 3 with %d", im.Epoch, im.Pages.Len(), len(acked))
				}
				for p, v := range acked {
					if got, _ := im.Pages.Get(p); !bytes.Equal(got, fill(p, v)) {
						t.Errorf("page %d restored as %x, acknowledged version %d", p, got[:1], v)
					}
				}
			})
		}
	}
}
