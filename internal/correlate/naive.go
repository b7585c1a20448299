package correlate

import (
	"math"
	"slices"
	"sort"
	"time"

	"github.com/hpcfail/hpcfail/internal/analysis"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// MineNaive is the frozen reference miner: a direct, index-free transcript
// of the pair-counting semantics. For every (valid-category) event — the
// anchor — it scans forward over the system's timeline and marks, per
// scope and target category, whether at least one strictly-later event
// lands within (t, t+w]: on the anchor's node (node scope), on a different
// placed node of the anchor's rack (rack scope), or on any other node of
// the system (system scope). Events at the anchor's own instant never
// satisfy it, and invalid categories are skipped both as anchors and as
// targets. Every system of the dataset appears in the result, ascending by
// ID, even with zero events.
//
// The incremental Miner must stay bit-identical to this function; change
// neither without the differential tests.
func MineNaive(ds *trace.Dataset, w time.Duration) RuleCounts {
	out := RuleCounts{Window: w}
	bySys := make(map[int][]trace.Failure)
	for _, f := range ds.Failures {
		bySys[f.System] = append(bySys[f.System], f)
	}
	ids := make([]int, 0, len(ds.Systems))
	for _, s := range ds.Systems {
		ids = append(ids, s.ID)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fails := bySys[id]
		sort.SliceStable(fails, func(i, j int) bool { return fails[i].Time.Before(fails[j].Time) })
		sc := SystemCounts{System: id}
		lay := ds.Layouts[id]
		for i, anchor := range fails {
			a := catIndex(anchor.Category)
			if a < 0 {
				continue
			}
			sc.Total++
			sc.Anchors[a]++
			rack := -1
			if lay != nil {
				if p, ok := lay.Place(anchor.Node); ok {
					rack = p.Rack
				}
			}
			deadline := anchor.Time.Add(w)
			var sat [numScopes][NumCategories]bool
			for j := i + 1; j < len(fails); j++ {
				tgt := fails[j]
				if tgt.Time.After(deadline) {
					break
				}
				if !tgt.Time.After(anchor.Time) {
					continue
				}
				b := catIndex(tgt.Category)
				if b < 0 {
					continue
				}
				if tgt.Node == anchor.Node {
					sat[0][b] = true
					continue
				}
				sat[2][b] = true
				if rack >= 0 {
					if p, ok := lay.Place(tgt.Node); ok && p.Rack == rack {
						sat[1][b] = true
					}
				}
			}
			for s := range sat {
				for b, hit := range sat[s] {
					if hit {
						sc.Pairs[s][a][b]++
					}
				}
			}
		}
		out.Systems = append(out.Systems, sc)
	}
	return out
}

// DetectAnomaliesNaive is the frozen reference vicinity detector: for every
// node it materializes the vicinity as the merged rack-mate and
// position-peer lists of the layout, copies the neighbors' rates and
// burstiness values, and sorts them twice for median and MAD. It costs a
// layout walk and two sorts per node — O(n² log n) per system — which is
// what DetectAnomalies avoids. Layout nodes outside [0, Nodes) are not
// part of any vicinity.
//
// DetectAnomalies must stay bit-identical to this function; change neither
// without the differential tests.
func DetectAnomaliesNaive(an *analysis.Analyzer, systems []int, k int) []Anomaly {
	didx := an.DatasetIndex()
	if didx == nil {
		didx = analysis.NewDatasetIndex(an.DS)
	}
	ids := systemIDs(an.DS, systems)
	var out []Anomaly
	for _, id := range ids {
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
		stats := make([]nodeStats, info.Nodes)
		for n := 0; n < info.Nodes; n++ {
			stats[n] = naiveFeatures(v, n, days)
		}
		lay := an.DS.Layouts[id]
		for n := 0; n < info.Nodes; n++ {
			var neigh []int
			if lay != nil {
				neigh = naiveMergeSorted(lay.RackMates(n), lay.PositionPeers(n))
			}
			neigh = slices.DeleteFunc(neigh, func(m int) bool { return m < 0 || m >= info.Nodes })
			if len(neigh) == 0 {
				neigh = naiveAllOthers(info.Nodes, n)
			}
			if len(neigh) == 0 {
				continue // single-node system: no vicinity to deviate from
			}
			out = append(out, naiveScoreNode(id, n, &stats[n], stats, neigh, days))
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].System != out[j].System {
			return out[i].System < out[j].System
		}
		return out[i].Node < out[j].Node
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// naiveFeatures extracts one node's features from the posting lists.
func naiveFeatures(v analysis.SystemView, node int, days float64) nodeStats {
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
	st.burst = naiveBurstiness(v, list)
	return st
}

// naiveBurstiness is the Goh-Barabási coefficient over a materialized
// slice of inter-arrival gaps; 0 below 3 events.
func naiveBurstiness(v analysis.SystemView, list []int32) float64 {
	if len(list) < 3 {
		return 0
	}
	gaps := make([]float64, 0, len(list)-1)
	for i := 1; i < len(list); i++ {
		gaps = append(gaps, v.Time(int(list[i])).Sub(v.Time(int(list[i-1]))).Hours())
	}
	var mu float64
	for _, g := range gaps {
		mu += g
	}
	mu /= float64(len(gaps))
	var ss float64
	for _, g := range gaps {
		d := g - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / float64(len(gaps)))
	if sigma+mu == 0 {
		return 0
	}
	return (sigma - mu) / (sigma + mu)
}

// naiveScoreNode computes the three deviations of one node against its
// materialized neighborhood and assembles the anomaly record.
func naiveScoreNode(system, node int, st *nodeStats, all []nodeStats, neigh []int, days float64) Anomaly {
	rates := make([]float64, 0, len(neigh))
	bursts := make([]float64, 0, len(neigh))
	var pooled [NumCategories]int
	pooledTotal := 0
	for _, m := range neigh {
		ns := &all[m]
		rates = append(rates, ns.rate)
		bursts = append(bursts, ns.burst)
		for c := range pooled {
			pooled[c] += ns.cat[c]
		}
		pooledTotal += ns.count
	}

	med, mad := naiveMedianMAD(rates)
	rateScale := 1.4826*mad + 0.1*med + 1/days
	rateDev := math.Abs(st.rate-med) / rateScale

	shrink := float64(st.count) / float64(st.count+4)
	var mixDev float64
	if st.count > 0 && pooledTotal > 0 {
		var l1 float64
		for c := range pooled {
			l1 += math.Abs(st.mix[c] - float64(pooled[c])/float64(pooledTotal))
		}
		mixDev = 0.5 * l1 * shrink
	}

	bmed, bmad := naiveMedianMAD(bursts)
	burstDev := math.Abs(st.burst-bmed) / (1.4826*bmad + 0.1) * shrink

	return Anomaly{
		System:    system,
		Node:      node,
		Score:     rateDev + mixDev + 0.5*burstDev,
		RateDev:   rateDev,
		MixDev:    mixDev,
		BurstDev:  burstDev,
		Rate:      st.rate,
		Events:    st.count,
		Neighbors: len(neigh),
	}
}

// naiveMedianMAD returns the median and the median absolute deviation of
// xs (0, 0 for an empty slice) by sorting copies. xs is not modified.
func naiveMedianMAD(xs []float64) (med, mad float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	med = naiveMid(s)
	for i, x := range s {
		s[i] = math.Abs(x - med)
	}
	sort.Float64s(s)
	return med, naiveMid(s)
}

func naiveMid(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// naiveMergeSorted merges two ascending int slices, deduplicating.
func naiveMergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// naiveAllOthers returns 0..n-1 without node.
func naiveAllOthers(n, node int) []int {
	out := make([]int, 0, n-1)
	for m := 0; m < n; m++ {
		if m != node {
			out = append(out, m)
		}
	}
	return out
}
