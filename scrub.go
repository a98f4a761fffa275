package aickpt

import (
	"errors"

	"repro/internal/ckpt"
	"repro/internal/multilevel"
)

// Segment health statuses reported by Verify and in ScrubEntry.Status
// (mirrors of the internal ckpt statuses).
const (
	// HealthOK: manifest decoded and every segment record verified.
	HealthOK = ckpt.StatusOK
	// HealthTornTail: a manifest torn by a mid-crash write, newer than
	// every intact chain entry — the epoch never sealed, so this is a
	// harmless crash artifact, not damage.
	HealthTornTail = ckpt.StatusTornTail
	// HealthManifestCorrupt: an interior manifest failed to decode — the
	// epoch was provably sealed once, so this is real damage.
	HealthManifestCorrupt = ckpt.StatusManifestCorrupt
	// HealthSegmentMissing: a sealed manifest whose segment file is gone.
	HealthSegmentMissing = ckpt.StatusSegmentMissing
	// HealthSegmentCorrupt: a segment whose records fail the checks
	// restore makes (framing, size, payload hash, decode, page id or
	// content hash against the manifest) or that goes on past its last
	// record.
	HealthSegmentCorrupt = ckpt.StatusSegmentCorrupt
)

// SegmentHealth is one Verify finding, the health of one chain entry: its
// Manifest and Segment file names, Epoch (a base's covering range ends
// there), IsBase, a Status that is one of the Health* constants with the
// verification error in Detail, the entry's PageCount, TotalBytes (its
// segment size) and Deduped (page writes recorded as references instead),
// Superseded for an entry a newer base covers (restore never reads it, so
// it is never Damaged), and Damaged — whether it needs repair (torn tails
// do not: they were never sealed).
type SegmentHealth = ckpt.SegmentHealth

// ScrubEntry is one scrub finding and what the pass did about it: the
// health status that triggered it (or "drain-failed" for requeued tier
// copies) and the outcome — "repaired from <tier>", "requeued",
// "unrepaired: <reason>", or "" for torn tails.
type ScrubEntry = multilevel.ScrubEntry

// ScrubReport summarizes one scrub pass: entries checked, damaged entries
// found (torn tails excluded) split into Repaired and Unrepaired — without
// redundant tiers every damaged entry is Unrepaired — and tier copies
// re-enqueued after exhausting their drain retry budget.
type ScrubReport = multilevel.ScrubReport

// Scrub verifies every chain entry on the hierarchy's local tier and
// self-heals what it can: damaged epochs are quarantined and rebuilt from
// the fastest lower tier still holding them, a damaged compacted base is
// re-folded from the per-epoch copies the lower tiers kept, and tier
// copies that exhausted their drain retry budget are re-enqueued for
// promotion (so a tier that recovered catches back up). It is safe to run
// concurrently with checkpoints and active drains.
func (h *Hierarchy) Scrub() (ScrubReport, error) { return h.inner.Scrub() }

// Scrub verifies the runtime's checkpoint chain and repairs what its
// store allows. With Options.Tiers it is the self-healing hierarchy scrub
// (see Hierarchy.Scrub); with Options.Dir there is no redundant tier to
// repair from, so damage is detected, reported and counted Unrepaired but
// files are left untouched. With a custom Store scrubbing is unsupported.
func (rt *Runtime) Scrub() (ScrubReport, error) {
	switch {
	case rt.hier != nil:
		return rt.hier.Scrub()
	case rt.fs != nil:
		return multilevel.ScrubChain(rt.fs, rt.metrics, nil)
	default:
		return ScrubReport{}, errors.New("aickpt: Scrub needs a repository store (Options.Dir or Options.Tiers)")
	}
}

// Verify runs a read-only integrity check over a checkpoint directory —
// no runtime needed, nothing is modified: every chain entry's manifest is
// decoded and every record of every segment, superseded ones included, is
// re-read with the checks restore makes.
// Corrupt manifests are classified as torn tails (crash artifacts, not
// damage) or interior corruption exactly as restore would classify them.
func Verify(dir string) ([]SegmentHealth, error) {
	fs, err := ckpt.OpenOSFS(dir)
	if err != nil {
		return nil, err
	}
	return ckpt.VerifyChain(fs)
}
