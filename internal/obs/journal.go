package obs

import "time"

// Stage names one step of the checkpoint pipeline in the trace journal,
// covering the full epoch lifecycle: fault → COW → select → compress →
// write → seal → drain → promote → compact (plus wait, dedup and
// restore, which the pipeline emits on the corresponding paths).
type Stage uint8

const (
	// StageFault: a first write trapped by the page handler
	// (value = service latency ns).
	StageFault Stage = iota
	// StageCow: the fault was absorbed by a copy-on-write slot
	// (value = COW slots in use after the grab).
	StageCow
	// StageWait: the fault blocked on an in-flight page
	// (value = blocked ns).
	StageWait
	// StageCheckpoint: Checkpoint() rotated an epoch
	// (value = app-blocked ns inside the call).
	StageCheckpoint
	// StageSelect: the adaptive flush-order selector was built
	// (value = build ns).
	StageSelect
	// StageCompress: a page payload was codec-encoded
	// (value = encoded bytes).
	StageCompress
	// StageDedup: a page write was elided by content-addressed dedup
	// (value = raw bytes saved).
	StageDedup
	// StageWrite: a page was committed to the storage backend
	// (value = write ns).
	StageWrite
	// StageSeal: an epoch was sealed by EndEpoch (value = seal ns).
	StageSeal
	// StageDrain: a sealed epoch entered a tier's drain queue
	// (value = queue depth after enqueue).
	StageDrain
	// StagePromote: an epoch was stored on a lower tier
	// (value = promotion ns).
	StagePromote
	// StagePromoteFail: a tier exhausted its retry budget for an epoch.
	StagePromoteFail
	// StageCompact: a compaction pass committed a base
	// (value = bytes reclaimed).
	StageCompact
	// StageRestore: an epoch was read back during restore
	// (value = pages restored).
	StageRestore
	// StageScrub: a scrub pass verified the chain
	// (value = damaged entries found).
	StageScrub
	// StageRepair: a damaged chain entry was rebuilt from a lower tier
	// (value = pages rewritten; tier = the tier that supplied them).
	StageRepair
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageFault:
		return "fault"
	case StageCow:
		return "cow"
	case StageWait:
		return "wait"
	case StageCheckpoint:
		return "checkpoint"
	case StageSelect:
		return "select"
	case StageCompress:
		return "compress"
	case StageDedup:
		return "dedup"
	case StageWrite:
		return "write"
	case StageSeal:
		return "seal"
	case StageDrain:
		return "drain"
	case StagePromote:
		return "promote"
	case StagePromoteFail:
		return "promote-fail"
	case StageCompact:
		return "compact"
	case StageRestore:
		return "restore"
	case StageScrub:
		return "scrub"
	case StageRepair:
		return "repair"
	default:
		return "unknown"
	}
}

// Event is one traced pipeline step. At is the Metrics' time source at
// record time — wall-clock-relative for real runs, virtual time for
// simulations — so traces order identically in both worlds. Page is -1
// for events without a page, Tier is 0 for events outside the
// hierarchy (lower tiers are 1-based levels).
type Event struct {
	Seq   uint64        `json:"seq"`
	At    time.Duration `json:"at_ns"`
	Stage Stage         `json:"-"`
	Epoch uint64        `json:"epoch"`
	Page  int32         `json:"page"`
	Tier  int8          `json:"tier"`
	Value int64         `json:"value"`
}

// unpackEvent reads an event back from the ring words record laid out.
func unpackEvent(r ringRecord) Event {
	p := r.w[3]
	return Event{
		Seq: r.seq, At: time.Duration(r.w[0]), Epoch: r.w[1], Value: int64(r.w[2]),
		Stage: Stage(p & 0xff), Page: int32(uint32(p >> 32)), Tier: int8(uint8(p >> 8)),
	}
}

// Journal is the bounded, lock-free ring of pipeline events (see ring):
// tracing is safe on every hot path and a scrape can never stall a
// Checkpoint.
type Journal struct{ ring }

// DefaultJournalDepth is the default ring capacity.
const DefaultJournalDepth = 4096

// NewJournal returns a journal holding the most recent `depth` events
// (rounded up to a power of two, minimum 16).
func NewJournal(depth int) *Journal {
	j := &Journal{}
	j.init(depth)
	return j
}

// record appends one event, allocation-free, as the ring words at, epoch,
// value, page(32) | tier(8) | stage(8).
//
//aickpt:hotpath
func (j *Journal) record(at time.Duration, stage Stage, epoch uint64, page int32, tier int8, value int64) {
	j.put(uint64(at), epoch, uint64(value), uint64(uint32(page))<<32|uint64(uint8(tier))<<8|uint64(stage))
}

// Snapshot returns the retained events ordered by sequence number,
// without blocking writers.
func (j *Journal) Snapshot() []Event {
	recs := j.snapshot()
	out := make([]Event, len(recs))
	for i, r := range recs {
		out[i] = unpackEvent(r)
	}
	return out
}
