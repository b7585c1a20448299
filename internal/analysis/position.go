package analysis

import (
	"fmt"

	"github.com/hpcfail/hpcfail/internal/stats"
	"github.com/hpcfail/hpcfail/internal/trace"
)

// PositionEffect reproduces the Section IV.C negative result: whether a
// node's position in the rack or the rack's position on the machine-room
// floor predicts its failure rate. The paper "could not find any clear
// patterns"; the chi-square tests below formalize that check.
type PositionEffect struct {
	System int
	// ByPosition[p-1] is the total failure count of nodes at position p
	// (1 = bottom ... 5 = top), with matching node counts in PosNodes.
	ByPosition []float64
	PosNodes   []float64
	// PositionTest is the equal-rates chi-square across positions.
	PositionTest stats.TestResult
	// ByRow[r] is the failure count of row r, with RowNodes exposures.
	ByRow    []float64
	RowNodes []float64
	// RowTest is the equal-rates chi-square across machine-room rows.
	RowTest stats.TestResult
}

// PositionEffects computes the layout analysis for one system with a
// layout. excludeNode0 removes the login node, whose special role would
// otherwise masquerade as a position effect (node 0 sits at position 1 of
// rack 0).
func (a *Analyzer) PositionEffects(system int, excludeNode0 bool) (PositionEffect, error) {
	out := PositionEffect{System: system}
	lay := a.DS.Layouts[system]
	if lay == nil {
		return out, fmt.Errorf("analysis: system %d has no machine-room layout", system)
	}
	info, _ := a.DS.System(system)

	counts := make([]int, info.Nodes)
	for _, f := range a.SystemFailures(system) {
		if f.Node >= 0 && f.Node < info.Nodes {
			counts[f.Node]++
		}
	}

	maxPos := 0
	maxRow := 0
	for n := 0; n < info.Nodes; n++ {
		p, ok := lay.Place(n)
		if !ok {
			continue
		}
		if p.Position > maxPos {
			maxPos = p.Position
		}
		if p.Row > maxRow {
			maxRow = p.Row
		}
	}
	out.ByPosition = make([]float64, maxPos)
	out.PosNodes = make([]float64, maxPos)
	out.ByRow = make([]float64, maxRow+1)
	out.RowNodes = make([]float64, maxRow+1)
	for n := 0; n < info.Nodes; n++ {
		if excludeNode0 && n == 0 {
			continue
		}
		p, ok := lay.Place(n)
		if !ok {
			continue
		}
		out.ByPosition[p.Position-1] += float64(counts[n])
		out.PosNodes[p.Position-1]++
		out.ByRow[p.Row] += float64(counts[n])
		out.RowNodes[p.Row]++
	}
	if r, err := stats.ChiSquareEqualRates(out.ByPosition, nonzero(out.PosNodes)); err == nil {
		out.PositionTest = r
	}
	if r, err := stats.ChiSquareEqualRates(out.ByRow, nonzero(out.RowNodes)); err == nil {
		out.RowTest = r
	}
	return out, nil
}

// nonzero replaces zero exposures with a tiny epsilon so empty positions
// do not abort the test; their expected counts become negligible.
func nonzero(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			out[i] = 1e-9
		} else {
			out[i] = x
		}
	}
	return out
}

// RatePerNode returns failures per node at each rack position.
func (p PositionEffect) RatePerNode() []float64 {
	out := make([]float64, len(p.ByPosition))
	for i := range out {
		if p.PosNodes[i] > 0 {
			out[i] = p.ByPosition[i] / p.PosNodes[i]
		}
	}
	return out
}

// Pooled across systems: PositionEffectsAll merges the per-position counts
// of every group-1 system with a layout (node 0 excluded).
func (a *Analyzer) PositionEffectsAll(systems []trace.SystemInfo) PositionEffect {
	var merged PositionEffect
	for _, s := range systems {
		pe, err := a.PositionEffects(s.ID, true)
		if err != nil {
			continue
		}
		if len(merged.ByPosition) < len(pe.ByPosition) {
			grow := make([]float64, len(pe.ByPosition))
			copy(grow, merged.ByPosition)
			merged.ByPosition = grow
			grow2 := make([]float64, len(pe.PosNodes))
			copy(grow2, merged.PosNodes)
			merged.PosNodes = grow2
		}
		for i := range pe.ByPosition {
			merged.ByPosition[i] += pe.ByPosition[i]
			merged.PosNodes[i] += pe.PosNodes[i]
		}
	}
	if len(merged.ByPosition) >= 2 {
		if r, err := stats.ChiSquareEqualRates(merged.ByPosition, nonzero(merged.PosNodes)); err == nil {
			merged.PositionTest = r
		}
	}
	return merged
}
