package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pubsubcd/internal/workload"
)

// testHarness runs at 1/20 scale so the whole experiment suite stays fast.
func testHarness() *Harness {
	return New(Config{Scale: 20, Seed: 1, TopologySeed: 7})
}

func TestHarnessWorkloadCaching(t *testing.T) {
	h := testHarness()
	a, err := h.Workload(workload.TraceNEWS, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Workload(workload.TraceNEWS, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("workload should be cached per (trace, sq)")
	}
	c, err := h.Workload(workload.TraceNEWS, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different SQ must yield a different workload")
	}
}

func TestBestBetaCachedAndValid(t *testing.T) {
	h := testHarness()
	b1, err := h.BestBeta("SG2", workload.TraceNEWS, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range BetaGrid {
		if b == b1 {
			found = true
		}
	}
	if !found {
		t.Errorf("best beta %g not on the grid", b1)
	}
	b2, err := h.BestBeta("SG2", workload.TraceNEWS, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("best beta should be cached and stable")
	}
	// Strategies without β report 1.
	b, err := h.BestBeta("SR", workload.TraceNEWS, 0.05)
	if err != nil || b != 1 {
		t.Errorf("SR beta = %g, %v; want 1, nil", b, err)
	}
	// DM inherits GD*'s β.
	bdm, err := h.BestBeta("DM", workload.TraceNEWS, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	bgd, err := h.BestBeta("GD*", workload.TraceNEWS, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if bdm != bgd {
		t.Errorf("DM beta %g should equal GD* beta %g", bdm, bgd)
	}
}

func TestFig3ShapeAllDualBeatBaseline(t *testing.T) {
	h := testHarness()
	g, err := Fig3(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 5 || g.Rows[0] != "GD*" {
		t.Fatalf("unexpected rows: %v", g.Rows)
	}
	// At the 5% and 10% settings every Dual* scheme must beat GD* (the
	// paper's headline for Fig. 3). The 1% column is allowed to invert
	// for the fixed partition, which degenerates at tiny caches.
	for c := 1; c < len(g.Cols); c++ {
		base := g.Cells[0][c]
		for r := 1; r < len(g.Rows); r++ {
			if g.Cells[r][c] <= base {
				t.Errorf("%s at %s: %.3f does not beat GD* %.3f", g.Rows[r], g.Cols[c], g.Cells[r][c], base)
			}
		}
	}
}

func TestFig4ShapePushSchemesWin(t *testing.T) {
	h := testHarness()
	grids, err := Fig4(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 2 {
		t.Fatalf("want 2 grids, got %d", len(grids))
	}
	for _, g := range grids {
		// At 5% capacity, every subscription-informed scheme beats GD*.
		baseIdx := -1
		capIdx := 1 // 5%
		for r, name := range g.Rows {
			if name == "GD*" {
				baseIdx = r
			}
		}
		base := g.Cells[baseIdx][capIdx]
		for r, name := range g.Rows {
			if name == "GD*" {
				continue
			}
			if g.Cells[r][capIdx] <= base {
				t.Errorf("%s: %s at 5%% (%.3f) should beat GD* (%.3f)", g.Title, name, g.Cells[r][capIdx], base)
			}
		}
	}
}

func TestTable2ShapeAlternativeGainsLarger(t *testing.T) {
	h := testHarness()
	g, err := Table2(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 2 {
		t.Fatalf("want 2 rows, got %v", g.Rows)
	}
	// The paper's key observation: relative improvements are much larger
	// for α = 1.0 than for α = 1.5. Check it for the majority of
	// columns, and that the best gains are substantial.
	larger := 0
	for c := range g.Cols {
		if g.Cells[1][c] > g.Cells[0][c] {
			larger++
		}
	}
	if larger < len(g.Cols)/2+1 {
		t.Errorf("ALTERNATIVE gains should mostly exceed NEWS gains: %v vs %v", g.Cells[1], g.Cells[0])
	}
	best := 0.0
	for c := range g.Cols {
		if g.Cells[0][c] > best {
			best = g.Cells[0][c]
		}
	}
	if best < 20 {
		t.Errorf("best NEWS gain %.1f%% too small; pushing is not paying off", best)
	}
}

func TestFig5ShapeSQSensitivity(t *testing.T) {
	h := testHarness()
	grids, err := Fig5(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range grids {
		idx := func(name string) int {
			for r, n := range g.Rows {
				if n == name {
					return r
				}
			}
			t.Fatalf("row %s missing", name)
			return -1
		}
		gd := idx("GD*")
		// GD* ignores subscriptions entirely: its hit ratio must be
		// identical across SQ levels.
		for c := 1; c < len(g.Cols); c++ {
			if math.Abs(g.Cells[gd][c]-g.Cells[gd][0]) > 1e-9 {
				t.Errorf("%s: GD* varies with SQ: %v", g.Title, g.Cells[gd])
			}
		}
		// Subscription-driven schemes must not improve as SQ drops to
		// 0.25 (they lose prediction accuracy).
		for _, name := range []string{"SUB", "SR", "SG2"} {
			r := idx(name)
			atLow, atOne := g.Cells[r][0], g.Cells[r][len(g.Cols)-1]
			if atLow > atOne+0.02 {
				t.Errorf("%s: %s improves as SQ drops (%.3f at 0.25 vs %.3f at 1)", g.Title, name, atLow, atOne)
			}
		}
	}
}

func TestFig6ShapeSUBDecays(t *testing.T) {
	h := testHarness()
	series, err := Fig6(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		subIdx := -1
		for i, n := range s.Names {
			if n == "SUB" {
				subIdx = i
			}
		}
		day := func(curve []float64, d int) float64 {
			sum, n := 0.0, 0
			for hr := d * 24; hr < (d+1)*24 && hr < len(curve); hr++ {
				if !math.IsNaN(curve[hr]) {
					sum += curve[hr]
					n++
				}
			}
			if n == 0 {
				return math.NaN()
			}
			return sum / float64(n)
		}
		first, last := day(s.Y[subIdx], 0), day(s.Y[subIdx], 6)
		if !(first > last) {
			t.Errorf("%s: SUB should decay over time (day0=%.3f day6=%.3f)", s.Title, first, last)
		}
	}
}

func TestFig7ShapeTrafficOrdering(t *testing.T) {
	h := testHarness()
	series, err := Fig7(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("want AP and PWN series, got %d", len(series))
	}
	total := func(s *Series, name string) float64 {
		for i, n := range s.Names {
			if n == name {
				sum := 0.0
				for _, v := range s.Y[i] {
					sum += v
				}
				return sum
			}
		}
		t.Fatalf("series %s missing", name)
		return 0
	}
	ap, pwn := series[0], series[1]
	// Pushing schemes carry more traffic than the fetch-only baseline,
	// and PWN never exceeds AP.
	for _, name := range []string{"SUB", "SG2"} {
		if total(ap, name) <= total(ap, "GD*") {
			t.Errorf("AP: %s traffic should exceed GD*'s", name)
		}
		if total(pwn, name) > total(ap, name) {
			t.Errorf("%s: PWN traffic exceeds AP", name)
		}
	}
	// GD* is scheme-independent.
	if total(ap, "GD*") != total(pwn, "GD*") {
		t.Error("GD* traffic must not depend on the pushing scheme")
	}
}

func TestBaselinesGDStarWins(t *testing.T) {
	h := testHarness()
	grids, err := Baselines(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range grids {
		// GD* should be at least as good as LRU at the 5% setting (the
		// reason the paper uses it as the baseline).
		var gd, lru float64
		for r, name := range g.Rows {
			switch name {
			case "GD*":
				gd = g.Cells[r][1]
			case "LRU":
				lru = g.Cells[r][1]
			}
		}
		if gd < lru-0.02 {
			t.Errorf("%s: GD* (%.3f) should not lose to LRU (%.3f)", g.Title, gd, lru)
		}
	}
}

func TestMixedRequestsMonotonicity(t *testing.T) {
	h := testHarness()
	g, err := MixedRequests(h)
	if err != nil {
		t.Fatal(err)
	}
	// SUB depends entirely on notifications: fewer notification-driven
	// requests must not help it.
	for r, name := range g.Rows {
		if name != "SUB" {
			continue
		}
		if g.Cells[r][0] > g.Cells[r][len(g.Cols)-1]+0.02 {
			t.Errorf("SUB should degrade with fewer notification-driven requests: %v", g.Cells[r])
		}
	}
}

func TestDCLAPBoundsSweepRuns(t *testing.T) {
	h := testHarness()
	g, err := DCLAPBoundsSweep(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 5 {
		t.Fatalf("want 5 bound settings, got %d", len(g.Rows))
	}
	for r := range g.Rows {
		if g.Cells[r][0] <= 0 || g.Cells[r][0] > 1 {
			t.Errorf("%s: hit ratio %g out of range", g.Rows[r], g.Cells[r][0])
		}
	}
}

func TestClosedLoopRankingAgrees(t *testing.T) {
	h := testHarness()
	g, err := ClosedLoop(h)
	if err != nil {
		t.Fatal(err)
	}
	// The headline ordering must hold on both streams: the combined
	// schemes beat GD* open- and closed-loop.
	var gdOpen, gdClosed float64
	for r, name := range g.Rows {
		if name == "GD*" {
			gdOpen, gdClosed = g.Cells[r][0], g.Cells[r][1]
		}
	}
	for r, name := range g.Rows {
		if name == "GD*" {
			continue
		}
		if g.Cells[r][0] <= gdOpen {
			t.Errorf("open-loop: %s (%.3f) should beat GD* (%.3f)", name, g.Cells[r][0], gdOpen)
		}
		if g.Cells[r][1] <= gdClosed {
			t.Errorf("closed-loop: %s (%.3f) should beat GD* (%.3f)", name, g.Cells[r][1], gdClosed)
		}
	}
}

func TestResponseTimesImprove(t *testing.T) {
	h := testHarness()
	g, err := ResponseTimes(h)
	if err != nil {
		t.Fatal(err)
	}
	var baseMS float64
	for r, name := range g.Rows {
		if name == "GD*" {
			baseMS = g.Cells[r][1]
		}
	}
	if baseMS <= 0 {
		t.Fatal("baseline response time not positive")
	}
	for r, name := range g.Rows {
		if name == "GD*" {
			continue
		}
		if g.Cells[r][1] >= baseMS {
			t.Errorf("%s response time %.1f should beat GD* %.1f", name, g.Cells[r][1], baseMS)
		}
		if g.Cells[r][2] <= 0 || g.Cells[r][2] >= 1 {
			t.Errorf("%s improvement %.3f out of (0, 1)", name, g.Cells[r][2])
		}
	}
}

func TestGridRendering(t *testing.T) {
	g := &Grid{
		Title:     "t",
		RowHeader: "r",
		Rows:      []string{"a", "b"},
		Cols:      []string{"c1", "c2"},
		Cells:     [][]float64{{1, math.NaN()}, {3, 4}},
	}
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "1.000") || !strings.Contains(out, "-") {
		t.Errorf("text rendering missing values:\n%s", out)
	}
}

func TestSeriesRendering(t *testing.T) {
	s := &Series{
		Title:  "t",
		XLabel: "hour",
		X:      []float64{0, 1},
		Names:  []string{"a"},
		Y:      [][]float64{{0.5, math.NaN()}},
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.500") {
		t.Errorf("series text rendering wrong:\n%s", buf.String())
	}
}
