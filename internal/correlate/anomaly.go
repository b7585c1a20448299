package correlate

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/layout"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// Anomaly is one node's deviation from its physical vicinity: how unlike
// its neighbors' the node's failure behavior is, decomposed into the three
// features the score sums.
type Anomaly struct {
	System int `json:"system"`
	Node   int `json:"node"`
	// Score is the ranking key: RateDev + MixDev + 0.5*BurstDev.
	Score float64 `json:"score"`
	// RateDev is the node's failure rate in robust z-score units of its
	// neighborhood (median/MAD); MixDev the shrunk half-L1 distance of the
	// node's category mix from the pooled neighborhood mix; BurstDev the
	// robust deviation of the node's inter-arrival burstiness.
	RateDev  float64 `json:"rate_dev"`
	MixDev   float64 `json:"mix_dev"`
	BurstDev float64 `json:"burst_dev"`
	// Rate is the node's failures per day over the measurement period.
	Rate float64 `json:"rate"`
	// Events is the node's failure count, Neighbors its vicinity size.
	Events    int `json:"events"`
	Neighbors int `json:"neighbors"`
}

// nodeStats are the per-node features the deviations compare.
type nodeStats struct {
	count int
	rate  float64
	mix   [NumCategories]float64 // category fractions (zero when count 0)
	cat   [NumCategories]int     // category counts
	burst float64                // Goh-Barabási burstiness, 0 below 3 events
}

// DetectAnomalies scores every node of the requested systems (all systems
// when none are given) against its physical vicinity and returns the top k
// (all when k <= 0), descending by score with (system, node) tie-breaks.
//
// A node's vicinity is its rack-mates plus its position peers — same
// in-rack height, other racks — from the system layout; nodes of systems
// without layouts (and placed nodes with otherwise empty vicinities)
// compare against all other nodes of the system. Layout entries for nodes
// outside [0, Nodes) are ignored. Deviations are robust (median/MAD with a
// floor) so one broken neighbor does not mask another, and small samples
// are shrunk toward zero so a node with two failures cannot out-score a
// persistently sick one. Everything derives from the snapshot's posting
// lists and the layout — the result is a pure function of the dataset,
// stable across runs and processes, and bit-identical to
// DetectAnomaliesNaive.
//
// Each system's position classes and racks are sorted once per call, and
// every node's median and MAD are selected from them by rank in
// O(r log n + log n log r) for its r rack-mates at other positions, so a
// system of n nodes in racks of bounded size costs O(n log n) instead of a
// layout walk and two sorts per node.
func DetectAnomalies(an *analysis.Analyzer, systems []int, k int) []Anomaly {
	didx := an.DatasetIndex()
	if didx == nil {
		didx = analysis.NewDatasetIndex(an.DS)
	}
	top := topAnomalies{k: k}
	var vc vicinity
	for _, id := range systemIDs(an.DS, systems) {
		info, ok := an.DS.System(id)
		if !ok {
			continue
		}
		v, vok := didx.SystemView(id)
		if !vok {
			continue
		}
		days := info.Period.End.Sub(info.Period.Start).Hours() / 24
		if days < 1.0/24 {
			days = 1.0 / 24
		}
		vc.reset(v, info.Nodes, an.DS.Layouts[id], days)
		for n := 0; n < info.Nodes; n++ {
			if a, ok := vc.score(id, n, days); ok {
				top.offer(a)
			}
		}
	}
	return top.result()
}

// compareAnomalies is DetectAnomalies' ranking order as a three-way
// comparison: descending score, then ascending system and node.
func compareAnomalies(a, b Anomaly) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.System, b.System); c != 0 {
		return c
	}
	return cmp.Compare(a.Node, b.Node)
}

// SortAnomalies orders anomalies the way DetectAnomalies returns them:
// descending by score, ties ascending by (system, node). The sharded
// serving path re-sorts concatenated per-shard top-k lists with this, so a
// scattered merge ranks exactly like one detector over the union would.
func SortAnomalies(out []Anomaly) {
	slices.SortStableFunc(out, compareAnomalies)
}

// topAnomalies keeps the best k anomalies offered so far under
// compareAnomalies (every one when k <= 0). It buffers up to 2k and then
// sorts and truncates to k, so an offer costs amortized O(log k); once k
// are held, anything not better than the k-th is rejected in O(1).
type topAnomalies struct {
	k    int
	buf  []Anomaly
	full bool    // buf held k entries at the last trim
	cut  Anomaly // the k-th best at the last trim, valid when full
}

func (t *topAnomalies) offer(a Anomaly) {
	if t.full && compareAnomalies(a, t.cut) >= 0 {
		return
	}
	t.buf = append(t.buf, a)
	if t.k > 0 && len(t.buf) >= 2*t.k {
		t.trim()
	}
}

func (t *topAnomalies) trim() {
	slices.SortFunc(t.buf, compareAnomalies)
	if t.k > 0 && len(t.buf) >= t.k {
		t.buf = t.buf[:t.k]
		t.full = true
		t.cut = t.buf[t.k-1]
	}
}

// result returns the kept anomalies, best first.
func (t *topAnomalies) result() []Anomaly {
	t.trim()
	return t.buf
}

// systemIDs resolves the requested system list (all when empty) to a
// sorted, deduplicated ID slice.
func systemIDs(ds *trace.Dataset, systems []int) []int {
	var ids []int
	if len(systems) > 0 {
		ids = append(ids, systems...)
	} else {
		for _, s := range ds.Systems {
			ids = append(ids, s.ID)
		}
	}
	sort.Ints(ids)
	uniq := ids[:0]
	for i, id := range ids {
		if i == 0 || ids[i-1] != id {
			uniq = append(uniq, id)
		}
	}
	return uniq
}

// nodeFeatures extracts one node's features from the posting lists.
func nodeFeatures(v analysis.SystemView, node int, days float64) nodeStats {
	var st nodeStats
	list := v.NodeClassList(node, trace.ClassAny)
	for _, q := range list {
		c := catIndex(v.Failure(int(q)).Category)
		if c < 0 {
			continue
		}
		st.count++
		st.cat[c]++
	}
	st.rate = float64(st.count) / days
	if st.count > 0 {
		for c := range st.mix {
			st.mix[c] = float64(st.cat[c]) / float64(st.count)
		}
	}
	st.burst = burstiness(v, list)
	return st
}

// burstiness is the Goh-Barabási coefficient (sigma-mu)/(sigma+mu) of the
// node's inter-arrival times: 0 for Poisson-like spacing, toward 1 for
// bursty clumps, toward -1 for metronomic spacing. Below 3 events (2
// gaps) it is defined as 0. It reads the gaps twice (mean, then spread)
// rather than storing them.
func burstiness(v analysis.SystemView, list []int32) float64 {
	if len(list) < 3 {
		return 0
	}
	gap := func(i int) float64 { return v.Time(int(list[i])).Sub(v.Time(int(list[i-1]))).Hours() }
	gaps := float64(len(list) - 1)
	var mu float64
	for i := 1; i < len(list); i++ {
		mu += gap(i)
	}
	mu /= gaps
	var ss float64
	for i := 1; i < len(list); i++ {
		d := gap(i) - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / gaps)
	if sigma+mu == 0 {
		return 0
	}
	return (sigma - mu) / (sigma + mu)
}

// class summarizes a set of nodes for vicinity statistics: their rates and
// burstiness values, each ascending, and their pooled category counts.
type class struct {
	rates, bursts []float64
	cat           [NumCategories]int
	count         int
}

func (c *class) reset() {
	c.rates, c.bursts = c.rates[:0], c.bursts[:0]
	c.cat, c.count = [NumCategories]int{}, 0
}

func (c *class) add(st *nodeStats) {
	c.rates = append(c.rates, st.rate)
	c.bursts = append(c.bursts, st.burst)
	for i := range c.cat {
		c.cat[i] += st.cat[i]
	}
	c.count += st.count
}

func (c *class) sort() {
	slices.Sort(c.rates)
	slices.Sort(c.bursts)
}

// placement is a placed node as its rack's value-ordered lists hold it.
type placement struct {
	node, rack, pos int
	v               float64
}

// slot locates a node: its in-rack position (0 when unplaced) and its
// rack's range in vicinity.byRate and vicinity.byBurst.
type slot struct{ pos, lo, hi int }

// vicinity is one system's nodes grouped the way vicinities are built from
// them. A node n placed at (rack r, position p) has vicinity
// (G_p ∪ R_r) \ {n}, where G_p is every placed node at position p and R_r
// every node of rack r: the position class G_p without n, plus the
// rack-mates at positions other than p. Only nodes in [0, Nodes) count as
// placed. Every buffer is reused from system to system.
type vicinity struct {
	stats  []nodeStats
	place  []slot
	byPos  [layout.PositionsPerRack + 1]class // G_p at index p
	all    class                              // every node, for the all-others fallback
	hasAll bool
	// byRate and byBurst hold the placed nodes grouped by rack, ascending
	// by rate (burstiness) within each rack.
	byRate, byBurst []placement
	// rates and bursts are one node's rack-mates at other positions,
	// ascending.
	rates, bursts []float64
	sel           vicinityValues
}

// reset loads one system: per-node features, position classes and rack
// groups.
func (vc *vicinity) reset(v analysis.SystemView, nodes int, lay *layout.Layout, days float64) {
	vc.stats = slices.Grow(vc.stats[:0], nodes)[:nodes]
	vc.place = slices.Grow(vc.place[:0], nodes)[:nodes]
	for n := range vc.stats {
		vc.stats[n] = nodeFeatures(v, n, days)
		vc.place[n] = slot{}
	}
	vc.hasAll = false
	for p := range vc.byPos {
		vc.byPos[p].reset()
	}
	vc.byRate, vc.byBurst = vc.byRate[:0], vc.byBurst[:0]
	if lay == nil {
		return
	}
	for n := 0; n < nodes; n++ {
		if p, ok := lay.Place(n); ok {
			vc.byPos[p.Position].add(&vc.stats[n])
			vc.byRate = append(vc.byRate, placement{n, p.Rack, p.Position, vc.stats[n].rate})
		}
	}
	for p := range vc.byPos {
		vc.byPos[p].sort()
	}
	byRack := func(a, b placement) int {
		if c := cmp.Compare(a.rack, b.rack); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	}
	slices.SortFunc(vc.byRate, byRack)
	vc.byBurst = append(vc.byBurst, vc.byRate...)
	for i := range vc.byBurst {
		vc.byBurst[i].v = vc.stats[vc.byBurst[i].node].burst
	}
	slices.SortFunc(vc.byBurst, byRack)
	for lo := 0; lo < len(vc.byRate); {
		hi := lo + 1
		for hi < len(vc.byRate) && vc.byRate[hi].rack == vc.byRate[lo].rack {
			hi++
		}
		for _, m := range vc.byRate[lo:hi] {
			vc.place[m.node] = slot{m.pos, lo, hi}
		}
		lo = hi
	}
}

// score scores node n against its vicinity; ok is false when the system
// has no other node to compare with.
func (vc *vicinity) score(system, n int, days float64) (a Anomaly, ok bool) {
	st := &vc.stats[n]
	sl := vc.place[n]
	vc.rates, vc.bursts = vc.rates[:0], vc.bursts[:0]
	var base *class
	var pooled [NumCategories]int
	var pooledTotal int
	if sl.pos > 0 {
		base = &vc.byPos[sl.pos]
		pooled, pooledTotal = base.cat, base.count
		for _, m := range vc.byRate[sl.lo:sl.hi] {
			if m.pos != sl.pos {
				vc.rates = append(vc.rates, m.v)
				ms := &vc.stats[m.node]
				for c := range pooled {
					pooled[c] += ms.cat[c]
				}
				pooledTotal += ms.count
			}
		}
		for _, m := range vc.byBurst[sl.lo:sl.hi] {
			if m.pos != sl.pos {
				vc.bursts = append(vc.bursts, m.v)
			}
		}
	}
	if base == nil || len(base.rates)-1+len(vc.rates) == 0 {
		// Unplaced, or placed with an empty vicinity: all other nodes.
		base = vc.allNodes()
		vc.rates, vc.bursts = vc.rates[:0], vc.bursts[:0]
		pooled, pooledTotal = base.cat, base.count
		if len(base.rates) == 1 {
			return Anomaly{}, false // single-node system: no vicinity to deviate from
		}
	}
	neighbors := len(base.rates) - 1 + len(vc.rates)
	for c := range pooled {
		pooled[c] -= st.cat[c]
	}
	pooledTotal -= st.count

	// Rate: robust z-score with a floored scale — the MAD of a healthy
	// rack is often 0, so the floor (a slice of the median plus one event
	// per period) keeps the score finite and damps single-event noise.
	med, mad := vc.sel.medianMAD(base.rates, st.rate, vc.rates)
	rateScale := 1.4826*mad + 0.1*med + 1/days
	rateDev := math.Abs(st.rate-med) / rateScale

	// Mix: half-L1 (total variation) distance between the node's category
	// mix and the pooled neighborhood mix, shrunk by count/(count+4) so a
	// couple of unusual failures don't dominate.
	shrink := float64(st.count) / float64(st.count+4)
	var mixDev float64
	if st.count > 0 && pooledTotal > 0 {
		var l1 float64
		for c := range pooled {
			l1 += math.Abs(st.mix[c] - float64(pooled[c])/float64(pooledTotal))
		}
		mixDev = 0.5 * l1 * shrink
	}

	// Burstiness: same robust form on the bounded [-1, 1] coefficient.
	bmed, bmad := vc.sel.medianMAD(base.bursts, st.burst, vc.bursts)
	burstDev := math.Abs(st.burst-bmed) / (1.4826*bmad + 0.1) * shrink

	return Anomaly{
		System:    system,
		Node:      n,
		Score:     rateDev + mixDev + 0.5*burstDev,
		RateDev:   rateDev,
		MixDev:    mixDev,
		BurstDev:  burstDev,
		Rate:      st.rate,
		Events:    st.count,
		Neighbors: neighbors,
	}, true
}

// allNodes returns the class of every node of the system, built on first
// use.
func (vc *vicinity) allNodes() *class {
	if !vc.hasAll {
		vc.all.reset()
		for i := range vc.stats {
			vc.all.add(&vc.stats[i])
		}
		vc.all.sort()
		vc.hasAll = true
	}
	return &vc.all
}

// vicinityValues reads the ascending multiset S of a node's vicinity
// values by rank without materializing it: a class's values without the
// node's own, merged with the values of its rack-mates at other positions.
// Its median and MAD are selected by rank and come out bit-identical to
// sorting S: a multiset has one sorted order, and every deviation is
// computed as math.Abs(x - med) exactly as a sort-based median/MAD
// computes it.
type vicinityValues struct {
	class []float64 // ascending, holding the node's own value at index skip
	skip  int
	extra []float64 // ascending
	pos   []int     // pos[j] is the rank of extra[j] in S
	med   float64
	h     int // how many elements of S are below med
}

// medianMAD returns the median and the median absolute deviation of S =
// class minus one occurrence of own, plus extra (S non-empty).
func (s *vicinityValues) medianMAD(class []float64, own float64, extra []float64) (med, mad float64) {
	s.class, s.extra = class, extra
	s.skip, _ = slices.BinarySearch(class, own)
	s.pos = s.pos[:0]
	for j, v := range extra {
		s.pos = append(s.pos, j+s.below(v))
	}
	n := len(class) - 1 + len(extra)
	s.med = middle(n, s.at)
	// Walking outward from the first element >= med, deviations rise to
	// the left and to the right: two ascending sequences.
	i, _ := slices.BinarySearch(extra, s.med)
	s.h = s.below(s.med) + i
	return s.med, middle(n, s.deviation)
}

// below returns how many class values other than the node's own are
// below v.
func (s *vicinityValues) below(v float64) int {
	i, _ := slices.BinarySearch(s.class, v)
	if s.skip < i {
		i--
	}
	return i
}

// at returns the i-th smallest element of S in O(log len(extra)).
func (s *vicinityValues) at(i int) float64 {
	j, isExtra := slices.BinarySearch(s.pos, i)
	if isExtra {
		return s.extra[j]
	}
	if i -= j; i >= s.skip {
		i++
	}
	return s.class[i]
}

// deviation returns the k-th smallest |x - med| over S, merging the
// deviations left of h (ascending as x falls) with those from h on
// (ascending as x rises) by binary search on how many come from the left.
func (s *vicinityValues) deviation(k int) float64 {
	left := func(i int) float64 { return math.Abs(s.at(s.h-1-i) - s.med) }
	right := func(i int) float64 { return math.Abs(s.at(s.h+i) - s.med) }
	nl, nr := s.h, len(s.class)-1+len(s.extra)-s.h
	lo, hi := max(0, k-nr), min(k, nl)
	for lo < hi {
		a := int(uint(lo+hi) >> 1)
		if right(k-a-1) <= left(a) {
			hi = a
		} else {
			lo = a + 1
		}
	}
	switch {
	case lo == nl:
		return right(k - lo)
	case k-lo == nr:
		return left(lo)
	}
	return min(left(lo), right(k-lo))
}

// middle returns the median of an ascending sequence of n > 0 elements
// read through at: the middle element, or the mean of the two middle
// ones for even n.
func middle(n int, at func(int) float64) float64 {
	if n%2 == 1 {
		return at(n / 2)
	}
	return (at(n/2-1) + at(n/2)) / 2
}
