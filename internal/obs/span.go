package obs

import "time"

// SpanKind names one stage of an epoch's lifecycle in the span log. A
// span is an interval [Start, End) on the Metrics' time source, where
// the point-in-time trace Journal records instants; together they form
// the flight recorder: the journal answers "what happened", the span
// log answers "what bounded the epoch's latency".
type SpanKind uint8

const (
	// SpanCommit: the epoch's local commit phase, from rotation until
	// the epoch is sealed on the first storage level. The seal span is
	// its final child.
	SpanCommit SpanKind = iota
	// SpanSeal: EndEpoch on the first storage level (manifest write,
	// fsync, drain-queue handoff).
	SpanSeal
	// SpanDrainWait: a sealed epoch sitting in a lower tier's drain
	// queue before the drainer picked it up.
	SpanDrainWait
	// SpanPromote: the store of a sealed epoch onto a lower tier.
	SpanPromote
	// SpanCompact: a compaction pass that folded the chain into a new
	// base (Epoch = the base's upper epoch).
	SpanCompact
	// SpanRestore: an epoch read back during tier-aware restore (Tier =
	// the level that served it: 0 local, 1.. lower tiers).
	SpanRestore
)

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	switch k {
	case SpanCommit:
		return "commit"
	case SpanSeal:
		return "seal"
	case SpanDrainWait:
		return "drain-wait"
	case SpanPromote:
		return "promote"
	case SpanCompact:
		return "compact"
	case SpanRestore:
		return "restore"
	default:
		return "unknown"
	}
}

// Span is one recorded lifecycle interval. Start and End are readings of
// the Metrics' time source — wall-clock-relative for real runs, virtual
// time for simulations — so span trees are deterministic under the
// simulation kernel. Tier is 0 for the local level, 1-based for lower
// tiers.
type Span struct {
	Seq   uint64        `json:"seq"`
	Kind  SpanKind      `json:"-"`
	Epoch uint64        `json:"epoch"`
	Tier  int8          `json:"tier"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Dur returns the span length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// unpackSpan reads a span back from the ring words record laid out.
func unpackSpan(r ringRecord) Span {
	p := r.w[3]
	return Span{
		Seq: r.seq, Start: time.Duration(r.w[0]), End: time.Duration(r.w[1]), Epoch: r.w[2],
		Kind: SpanKind(p & 0xff), Tier: int8(uint8(p >> 8)),
	}
}

// SpanLog is the bounded, lock-free ring of lifecycle spans, the interval
// counterpart of the trace Journal on the same ring: when it wraps, the
// oldest epochs fall off.
type SpanLog struct{ ring }

// DefaultSpanDepth is the default span-ring capacity. Spans are recorded
// per epoch and per tier (not per page), so a modest ring covers
// hundreds of epochs.
const DefaultSpanDepth = 1024

// NewSpanLog returns a span log holding the most recent `depth` spans
// (rounded up to a power of two, minimum 16).
func NewSpanLog(depth int) *SpanLog {
	l := &SpanLog{}
	l.init(depth)
	return l
}

// record appends one span, allocation-free, as the ring words start, end,
// epoch, tier(8) | kind(8).
func (l *SpanLog) record(kind SpanKind, epoch uint64, tier int8, start, end time.Duration) {
	l.put(uint64(start), uint64(end), epoch, uint64(uint8(tier))<<8|uint64(kind))
}

// Snapshot returns the retained spans ordered by sequence number,
// without blocking writers.
func (l *SpanLog) Snapshot() []Span {
	recs := l.snapshot()
	out := make([]Span, len(recs))
	for i, r := range recs {
		out[i] = unpackSpan(r)
	}
	return out
}

// Span records one lifecycle span with caller-supplied timestamps —
// instrumentation sites reuse the clock reads they already paid for a
// latency observation, per the reuse-the-clock-read discipline. It is a
// no-op on a nil receiver or without a span log, so call sites need no
// extra guard.
func (m *Metrics) Span(kind SpanKind, epoch uint64, tier int8, start, end time.Duration) {
	if m == nil || m.Spans == nil {
		return
	}
	m.Spans.record(kind, epoch, tier, start, end)
}
