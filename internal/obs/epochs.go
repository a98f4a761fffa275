package obs

import (
	"fmt"
	"sort"
)

// HeatBuckets is the fixed width of the per-epoch fault/COW heatmaps:
// the page space is divided into this many equal-size regions and each
// fault bumps one bucket, so the heatmap costs one shift and one add on
// the fault path and no allocation anywhere.
const HeatBuckets = 32

// Scorecard is the per-epoch selector prediction scorecard: how well
// the flush order predicted by the selector (counting-sort rank) agreed
// with the actual fault arrival order of the application. It is
// accumulated by the page manager at commit/fault sites and assembled
// into this wire form on the cold path (Runtime accessors, /epochs).
type Scorecard struct {
	Epoch uint64 `json:"epoch"`
	// PagesFlushed is the number of scheduled pages the committer
	// flushed this epoch (the length of the predicted order).
	PagesFlushed int `json:"pages_flushed"`
	// FaultArrivals is the number of first-write faults the application
	// took this epoch (the length of the actual order).
	FaultArrivals int `json:"fault_arrivals"`
	// Fault classification counts (the paper's WAIT/COW/AVOIDED/AFTER).
	Waits   int `json:"waits"`
	Cows    int `json:"cows"`
	Avoided int `json:"avoided"`
	After   int `json:"after"`
	// MaxWaitedDepth is the peak depth of the waited-page queue: how
	// many faulting application threads were stacked up behind in-flight
	// pages at the worst moment of the epoch.
	MaxWaitedDepth int `json:"max_waited_depth"`
	// RankPairs counts pages both flushed and faulted this epoch — the
	// pairs entering the footrule sum.
	RankPairs int `json:"rank_pairs"`
	// FootruleSum is sum(|flushRank - faultIndex|) over RankPairs.
	FootruleSum int64 `json:"footrule_sum"`
	// HitRate is avoided/(waits+cows+avoided): of the pages the
	// application touched while a checkpoint was live, the fraction the
	// committer had already flushed (vs absorbed by COW or blocked).
	HitRate float64 `json:"hit_rate"`
	// RankCorrelation is the footrule rank correlation between
	// predicted flush order and actual fault order (see
	// ScoreRankCorrelation): 1 = flushed exactly in fault order,
	// ~0 = no better than random, negative = anti-correlated.
	RankCorrelation float64 `json:"rank_correlation"`
	// FaultHeat / CowHeat split faults (all / COW-absorbed only) over
	// HeatBuckets equal regions of the page space.
	FaultHeat []uint32 `json:"fault_heat,omitempty"`
	CowHeat   []uint32 `json:"cow_heat,omitempty"`
}

// ScoreHitRate returns the flushed-before-faulted hit rate
// avoided/(waits+cows+avoided), or 0 when the epoch saw no overlapping
// access (no evidence either way). AFTER faults are excluded: they
// arrive once the checkpoint is already over, so no flush order could
// win or lose them.
func ScoreHitRate(waits, cows, avoided int) float64 {
	n := waits + cows + avoided
	if n == 0 {
		return 0
	}
	return float64(avoided) / float64(n)
}

// ScoreRankCorrelation converts an accumulated Spearman-footrule sum
// into a correlation using the Diaconis–Graham normalization
// 1 - 3F/(pairs*(scale-1)), where scale is the longer of the two rank
// sequences: 1 for identical orders, ~0 for independent random orders,
// down to -0.5 for exactly reversed orders (clamped to [-1, 1]). When
// the two sequences have different lengths (pages flushed vs faults
// taken) the ranks live on different scales, so the value is an
// approximation — still monotone in agreement, which is what the
// scorecard needs.
func ScoreRankCorrelation(footruleSum int64, pairs, flushed, arrivals int) float64 {
	scale := flushed
	if arrivals > scale {
		scale = arrivals
	}
	if pairs == 0 || scale <= 1 {
		return 0
	}
	c := 1 - 3*float64(footruleSum)/(float64(pairs)*float64(scale-1))
	if c < -1 {
		c = -1
	}
	if c > 1 {
		c = 1
	}
	return c
}

// FoldScorecards is the run-level fold of per-epoch scorecards: the hit
// rate recomputed over the summed fault counts, and the rank correlation
// weighted by each epoch's pairs (whose total is returned too).
func FoldScorecards(cards []Scorecard) (hitRate, rankCorr float64, pairs int) {
	var waits, cows, avoided int
	var weighted float64
	for _, c := range cards {
		waits += c.Waits
		cows += c.Cows
		avoided += c.Avoided
		weighted += c.RankCorrelation * float64(c.RankPairs)
		pairs += c.RankPairs
	}
	if pairs > 0 {
		rankCorr = weighted / float64(pairs)
	}
	return ScoreHitRate(waits, cows, avoided), rankCorr, pairs
}

// SpanNode is one node of a per-epoch span tree, JSON-friendly for the
// /epochs endpoint: the root spans the whole epoch lifecycle, the
// commit node owns the seal as its final child, and drain/promote/
// compact/restore stages hang off the root in time order.
type SpanNode struct {
	Kind     string     `json:"kind"`
	Tier     int8       `json:"tier,omitempty"`
	StartNs  int64      `json:"start_ns"`
	EndNs    int64      `json:"end_ns"`
	DurNs    int64      `json:"dur_ns"`
	Children []SpanNode `json:"children,omitempty"`
}

// CriticalStage is one entry of an epoch's critical-path breakdown.
type CriticalStage struct {
	// Stage is the stage name: "flush" (commit excluding the seal),
	// "seal", "drain-wait", "promote", "compact" or "restore".
	Stage string `json:"stage"`
	Tier  int8   `json:"tier,omitempty"`
	DurNs int64  `json:"dur_ns"`
	// Share is DurNs over the epoch's total lifecycle span.
	Share float64 `json:"share"`
}

// EpochRecord is the flight recorder's per-epoch view: the selector
// prediction scorecard plus the lifecycle span tree with its
// critical-path breakdown (which stage bounded the epoch's latency and
// by how much).
type EpochRecord struct {
	Epoch     uint64     `json:"epoch"`
	Scorecard *Scorecard `json:"scorecard,omitempty"`
	Spans     *SpanNode  `json:"spans,omitempty"`
	// TotalNs is the wall span of the epoch's lifecycle, first span
	// start to last span end.
	TotalNs int64 `json:"total_ns"`
	// Critical lists the stages in decreasing duration; Bounding names
	// the first (the stage that bounded epoch latency).
	Critical []CriticalStage `json:"critical_path,omitempty"`
	Bounding string          `json:"bounding,omitempty"`
}

// stageName renders a critical-path stage label like "promote[2]".
func stageName(stage string, tier int8) string {
	if tier == 0 {
		return stage
	}
	return fmt.Sprintf("%s[%d]", stage, tier)
}

// BuildEpochRecords merges per-epoch scorecards with a span snapshot
// into one record per epoch, sorted by epoch. Either input may be
// empty: scorecard-only epochs carry no tree, span-only epochs (e.g. a
// compaction attributed to an epoch that already left the stats window)
// carry no scorecard. This is a cold path — it allocates freely.
func BuildEpochRecords(cards []Scorecard, spans []Span) []EpochRecord {
	byEpoch := map[uint64]*EpochRecord{}
	get := func(epoch uint64) *EpochRecord {
		r := byEpoch[epoch]
		if r == nil {
			r = &EpochRecord{Epoch: epoch}
			byEpoch[epoch] = r
		}
		return r
	}
	for i := range cards {
		c := cards[i]
		get(c.Epoch).Scorecard = &c
	}
	grouped := map[uint64][]Span{}
	for _, s := range spans {
		grouped[s.Epoch] = append(grouped[s.Epoch], s)
	}
	for epoch, ss := range grouped {
		r := get(epoch)
		r.Spans, r.TotalNs, r.Critical = buildSpanTree(ss)
		if len(r.Critical) > 0 {
			r.Bounding = stageName(r.Critical[0].Stage, r.Critical[0].Tier)
		}
	}
	out := make([]EpochRecord, 0, len(byEpoch))
	for _, r := range byEpoch {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Epoch < out[b].Epoch })
	return out
}

// buildSpanTree assembles one epoch's spans into a tree rooted at the
// full lifecycle interval, plus the critical-path breakdown.
func buildSpanTree(ss []Span) (*SpanNode, int64, []CriticalStage) {
	sort.Slice(ss, func(a, b int) bool {
		if ss[a].Start != ss[b].Start {
			return ss[a].Start < ss[b].Start
		}
		return ss[a].Seq < ss[b].Seq
	})
	root := &SpanNode{Kind: "epoch", StartNs: int64(ss[0].Start)}
	var sealDur int64
	var commit *SpanNode
	for _, s := range ss {
		if e := int64(s.End); e > root.EndNs {
			root.EndNs = e
		}
		n := SpanNode{
			Kind: s.Kind.String(), Tier: s.Tier,
			StartNs: int64(s.Start), EndNs: int64(s.End), DurNs: int64(s.Dur()),
		}
		switch s.Kind {
		case SpanCommit:
			root.Children = append(root.Children, n)
			commit = &root.Children[len(root.Children)-1]
		case SpanSeal:
			sealDur += n.DurNs
			if commit != nil {
				commit.Children = append(commit.Children, n)
			} else {
				root.Children = append(root.Children, n)
			}
		default:
			root.Children = append(root.Children, n)
		}
	}
	root.DurNs = root.EndNs - root.StartNs
	total := root.DurNs

	var crit []CriticalStage
	addStage := func(stage string, tier int8, dur int64) {
		share := 0.0
		if total > 0 {
			share = float64(dur) / float64(total)
		}
		crit = append(crit, CriticalStage{Stage: stage, Tier: tier, DurNs: dur, Share: share})
	}
	for _, s := range ss {
		switch s.Kind {
		case SpanCommit:
			// The commit span covers the whole local phase including the
			// seal; report the flush work exclusive of it.
			d := int64(s.Dur()) - sealDur
			if d < 0 {
				d = 0
			}
			addStage("flush", s.Tier, d)
		case SpanSeal:
			addStage("seal", s.Tier, int64(s.Dur()))
		default:
			addStage(s.Kind.String(), s.Tier, int64(s.Dur()))
		}
	}
	sort.SliceStable(crit, func(a, b int) bool { return crit[a].DurNs > crit[b].DurNs })
	return root, total, crit
}
