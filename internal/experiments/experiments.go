package experiments

import (
	"fmt"
	"io"

	"pubsubcd/internal/core"
	"pubsubcd/internal/sim"
	"pubsubcd/internal/workload"
)

// fig4Algos are the strategies compared in Fig. 4 (and Fig. 5).
var fig4Algos = []string{"GD*", "SUB", "SG1", "SG2", "SR", "DC-LAP"}

// fig3Algos are the Dual* strategies compared against GD* in Fig. 3.
var fig3Algos = []string{"GD*", "DM", "DC-FP", "DC-AP", "DC-LAP"}

// table2Algos are the columns of Table 2.
var table2Algos = []string{"SUB", "SG1", "SG2", "SR", "DM", "DC-FP", "DC-LAP"}

// capLabel renders a capacity fraction as the paper's percentage label.
func capLabel(c float64) string { return fmt.Sprintf("%g%%", c*100) }

// Table1 renders the paper's Table 1: the categorisation of the schemes
// by when content is placed and what information values it.
func Table1(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "Table 1: categorisation of content distribution schemes"); err != nil {
		return err
	}
	for _, f := range core.Catalog() {
		if _, err := fmt.Fprintf(w, "%-8s when=%-12s how=%s\n", f.Name, f.When, f.How); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// BetaSweep reproduces the β-selection experiment of §5.1: GD*, SG1 and
// SG2 evaluated with β from 0.0625 to 4 under the three capacity
// settings, for both traces. All sweeps are scheduled concurrently; the
// single-flight sweep cache shares each one with later experiments.
func BetaSweep(h *Harness) ([]*Grid, error) {
	nRows := len(sweptAlgos) * len(Capacities)
	curves := make([][][]float64, len(Traces))
	for ti := range curves {
		curves[ti] = make([][]float64, nRows)
	}
	err := gather(len(Traces)*nRows, func(k int) error {
		ti, r := k/nRows, k%nRows
		algo := sweptAlgos[r/len(Capacities)]
		capacity := Capacities[r%len(Capacities)]
		_, curve, err := h.sweepBeta(algo, Traces[ti], capacity)
		if err != nil {
			return err
		}
		curves[ti][r] = curve
		return nil
	})
	if err != nil {
		return nil, err
	}
	var grids []*Grid
	for ti, trace := range Traces {
		g := &Grid{
			Title:     fmt.Sprintf("Beta sweep (hit ratio, %s trace, SQ=1)", trace),
			RowHeader: "algo@cap",
		}
		for _, beta := range BetaGrid {
			g.Cols = append(g.Cols, fmt.Sprintf("β=%g", beta))
		}
		for r := 0; r < nRows; r++ {
			algo := sweptAlgos[r/len(Capacities)]
			capacity := Capacities[r%len(Capacities)]
			g.Rows = append(g.Rows, fmt.Sprintf("%s@%s", algo, capLabel(capacity)))
			g.Cells = append(g.Cells, curves[ti][r])
		}
		grids = append(grids, g)
	}
	return grids, nil
}

// Fig3 reproduces Fig. 3: hit ratios of the Dual-Methods and Dual-Caches
// algorithms against GD* on the NEWS trace across capacities.
func Fig3(h *Harness) (*Grid, error) {
	return hitRatioGrid(h, "Fig. 3: Dual* hit ratios (NEWS, SQ=1)", fig3Algos, workload.TraceNEWS)
}

// Fig4 reproduces Fig. 4: hit ratios of the main schemes with perfect
// subscriptions for both traces, across capacities.
func Fig4(h *Harness) ([]*Grid, error) {
	grids := make([]*Grid, len(Traces))
	err := gather(len(Traces), func(ti int) error {
		trace := Traces[ti]
		g, err := hitRatioGrid(h, fmt.Sprintf("Fig. 4: hit ratios (%s, SQ=1)", trace), fig4Algos, trace)
		if err != nil {
			return err
		}
		grids[ti] = g
		return nil
	})
	if err != nil {
		return nil, err
	}
	return grids, nil
}

// hitRatioGrid fills an algos × capacities grid, scheduling every cell
// concurrently on the harness pool.
func hitRatioGrid(h *Harness, title string, algos []string, trace workload.TraceName) (*Grid, error) {
	g := &Grid{Title: title, RowHeader: "strategy"}
	for _, c := range Capacities {
		g.Cols = append(g.Cols, capLabel(c))
	}
	cells := make([][]float64, len(algos))
	for i := range cells {
		cells[i] = make([]float64, len(Capacities))
	}
	err := gather(len(algos)*len(Capacities), func(k int) error {
		i, j := k/len(Capacities), k%len(Capacities)
		res, err := h.RunTuned(algos[i], trace, Capacities[j], 1)
		if err != nil {
			return err
		}
		cells[i][j] = res.HitRatio()
		return nil
	})
	if err != nil {
		return nil, err
	}
	g.Rows = append(g.Rows, algos...)
	g.Cells = append(g.Cells, cells...)
	return g, nil
}

// Table2 reproduces Table 2: relative improvement over GD* (%) at the
// 5 % capacity setting for both traces.
func Table2(h *Harness) (*Grid, error) {
	g := &Grid{
		Title:     "Table 2: relative improvement over GD* (%) (capacity = 5%)",
		RowHeader: "α",
		Cols:      table2Algos,
		Percent:   true,
	}
	rows := make([][]float64, len(Traces))
	err := gather(len(Traces), func(ti int) error {
		trace := Traces[ti]
		// Cell 0 is the GD* base; cells 1… are the compared schemes.
		ratios := make([]float64, len(table2Algos)+1)
		err := gather(len(table2Algos)+1, func(k int) error {
			algo := "GD*"
			if k > 0 {
				algo = table2Algos[k-1]
			}
			res, err := h.RunTuned(algo, trace, 0.05, 1)
			if err != nil {
				return err
			}
			ratios[k] = res.HitRatio()
			return nil
		})
		if err != nil {
			return err
		}
		row := make([]float64, len(table2Algos))
		for i := range table2Algos {
			row[i] = 100 * (ratios[i+1] - ratios[0]) / ratios[0]
		}
		rows[ti] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ti, trace := range Traces {
		alpha := "1.5"
		if trace == workload.TraceALTERNATIVE {
			alpha = "1.0"
		}
		g.Rows = append(g.Rows, alpha)
		g.Cells = append(g.Cells, rows[ti])
	}
	return g, nil
}

// Fig5 reproduces Fig. 5: hit ratios under varying subscription quality
// at the 5 % capacity setting, for both traces. The full trace × algo ×
// SQ cube is scheduled as one batch of independent cells.
func Fig5(h *Harness) ([]*Grid, error) {
	nCells := len(fig4Algos) * len(SQLevels)
	cells := make([][][]float64, len(Traces))
	for ti := range cells {
		cells[ti] = make([][]float64, len(fig4Algos))
		for i := range cells[ti] {
			cells[ti][i] = make([]float64, len(SQLevels))
		}
	}
	err := gather(len(Traces)*nCells, func(k int) error {
		ti, r := k/nCells, k%nCells
		i, j := r/len(SQLevels), r%len(SQLevels)
		res, err := h.RunTuned(fig4Algos[i], Traces[ti], 0.05, SQLevels[j])
		if err != nil {
			return err
		}
		cells[ti][i][j] = res.HitRatio()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var grids []*Grid
	for ti, trace := range Traces {
		g := &Grid{
			Title:     fmt.Sprintf("Fig. 5: hit ratio vs subscription quality (%s, capacity = 5%%)", trace),
			RowHeader: "strategy",
		}
		for _, sq := range SQLevels {
			g.Cols = append(g.Cols, fmt.Sprintf("SQ=%g", sq))
		}
		g.Rows = append(g.Rows, fig4Algos...)
		g.Cells = append(g.Cells, cells[ti]...)
		grids = append(grids, g)
	}
	return grids, nil
}

// fig6Algos are the strategies tracked hourly in Fig. 6.
var fig6Algos = []string{"SG2", "SUB", "GD*"}

// Fig6 reproduces Fig. 6: average hourly hit ratio over the 7 simulated
// days for SG2, SUB and GD* (SQ = 1, capacity = 5 %), for both traces.
func Fig6(h *Harness) ([]*Series, error) {
	results := make([][]*sim.Result, len(Traces))
	for ti := range results {
		results[ti] = make([]*sim.Result, len(fig6Algos))
	}
	err := gather(len(Traces)*len(fig6Algos), func(k int) error {
		ti, i := k/len(fig6Algos), k%len(fig6Algos)
		res, err := h.RunTuned(fig6Algos[i], Traces[ti], 0.05, 1)
		if err != nil {
			return err
		}
		results[ti][i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Series
	for ti, trace := range Traces {
		s := &Series{
			Title:  fmt.Sprintf("Fig. 6: hourly hit ratio (%s, SQ=1, capacity=5%%)", trace),
			XLabel: "hour",
			Names:  fig6Algos,
		}
		for i := range fig6Algos {
			res := results[ti][i]
			if s.X == nil {
				for hr := range res.HourlyHits {
					s.X = append(s.X, float64(hr))
				}
			}
			s.Y = append(s.Y, res.HourlyHitRatio())
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig7 reproduces Fig. 7: hourly traffic in pages (pushes plus fetches on
// miss) for SUB, SG2 and GD* on the NEWS trace, under the Always-Pushing
// and Pushing-When-Necessary schemes. One run per strategy feeds both
// schemes (the placement outcome is scheme-independent).
func Fig7(h *Harness) ([]*Series, error) {
	algos := []string{"SUB", "SG2", "GD*"}
	results := make([]*sim.Result, len(algos))
	err := gather(len(algos), func(i int) error {
		res, err := h.RunTuned(algos[i], workload.TraceNEWS, 0.05, 1)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Series
	for _, scheme := range []sim.PushScheme{sim.AlwaysPush, sim.PushWhenNecessary} {
		s := &Series{
			Title:  fmt.Sprintf("Fig. 7: hourly traffic in pages, %s (NEWS, SQ=1, capacity=5%%)", scheme),
			XLabel: "hour",
			Names:  algos,
		}
		for _, res := range results {
			if s.X == nil {
				for hr := range res.HourlyHits {
					s.X = append(s.X, float64(hr))
				}
			}
			traffic := res.HourlyTraffic(scheme)
			y := make([]float64, len(traffic))
			for i, v := range traffic {
				y[i] = float64(v)
			}
			s.Y = append(s.Y, y)
		}
		out = append(out, s)
	}
	return out, nil
}

// Baselines compares GD* against the classic replacement algorithms the
// paper cites (LRU, GDS, LFU-DA) on both traces — the premise for using
// GD* as the baseline (§3.1).
func Baselines(h *Harness) ([]*Grid, error) {
	grids := make([]*Grid, len(Traces))
	err := gather(len(Traces), func(ti int) error {
		trace := Traces[ti]
		g, err := hitRatioGrid(h, fmt.Sprintf("Baselines: access-time-only hit ratios (%s)", trace),
			[]string{"GD*", "LRU", "GDS", "LFU-DA"}, trace)
		if err != nil {
			return err
		}
		grids[ti] = g
		return nil
	})
	if err != nil {
		return nil, err
	}
	return grids, nil
}

// DCLAPBoundsSweep is an ablation over DC-LAP's partition bounds: it
// sweeps symmetric bounds [lo, 1-lo] on the PC fraction at the 5 %
// capacity setting (NEWS), with DC-AP (unbounded) and DC-FP (fully
// pinned) as the end points.
func DCLAPBoundsSweep(h *Harness) (*Grid, error) {
	lows := []float64{0, 0.1, 0.25, 0.4, 0.5}
	g := &Grid{
		Title:     "Ablation: DC-LAP partition bounds (NEWS, SQ=1, capacity=5%)",
		RowHeader: "bounds",
		Cols:      []string{"hit ratio"},
	}
	w, err := h.Workload(workload.TraceNEWS, 1)
	if err != nil {
		return nil, err
	}
	costs, err := h.fetchCosts(w.Config.Servers)
	if err != nil {
		return nil, err
	}
	beta, err := h.BestBeta("GD*", workload.TraceNEWS, 0.05)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(lows))
	ratios := make([]float64, len(lows))
	err = gather(len(lows), func(i int) error {
		lo := lows[i]
		f := core.Factory{
			Name: fmt.Sprintf("DC-LAP[%g,%g]", lo, 1-lo),
			When: core.PlaceAtBoth,
			How:  core.ValueFromBoth,
			New: func(p core.Params) (core.Strategy, error) {
				return core.NewDCLAPBounded(p, lo, 1-lo)
			},
		}
		names[i] = f.Name
		res, err := h.runFactory(w, f, sim.Options{CapacityFraction: 0.05, Beta: beta, FetchCosts: costs, Telemetry: h.cfg.Telemetry})
		if err != nil {
			return err
		}
		ratios[i] = res.HitRatio()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range lows {
		g.Rows = append(g.Rows, names[i])
		g.Cells = append(g.Cells, []float64{ratios[i]})
	}
	return g, nil
}

// runFactory runs an ad-hoc factory cell under the scheduler's slot
// discipline (for drivers that build custom strategies or workloads).
func (h *Harness) runFactory(w *workload.Workload, f core.Factory, opts sim.Options) (*sim.Result, error) {
	h.slots <- struct{}{}
	defer func() { <-h.slots }()
	return sim.Run(w, f, opts)
}

// MixedRequests is the paper's stated future-work scenario (§7): only a
// fraction of requests is driven through the notification service. It
// sweeps NotificationDrivenFrac and reports hit ratios for GD*, SUB and
// SG2 (NEWS, 5 %). Each swept workload is generated once and shared by
// the three strategies (the old sequential driver regenerated it per
// strategy).
func MixedRequests(h *Harness) (*Grid, error) {
	fracs := []float64{0.25, 0.5, 0.75, 1}
	algos := []string{"GD*", "SUB", "SG2"}
	g := &Grid{
		Title:     "Extension: mixed request streams (NEWS, capacity=5%)",
		RowHeader: "strategy",
	}
	for _, fr := range fracs {
		g.Cols = append(g.Cols, fmt.Sprintf("notif=%g", fr))
	}
	workloads := make([]*workload.Workload, len(fracs))
	err := gather(len(fracs), func(i int) error {
		cfg := workload.ScaledConfig(workload.TraceNEWS, h.cfg.Scale)
		cfg.Seed = h.cfg.Seed
		cfg.NotificationDrivenFrac = fracs[i]
		w, err := workload.Generate(cfg)
		if err != nil {
			return err
		}
		workloads[i] = w
		return nil
	})
	if err != nil {
		return nil, err
	}
	costs, err := h.fetchCosts(workloads[0].Config.Servers)
	if err != nil {
		return nil, err
	}
	cells := make([][]float64, len(algos))
	for i := range cells {
		cells[i] = make([]float64, len(fracs))
	}
	err = gather(len(algos)*len(fracs), func(k int) error {
		ai, fi := k/len(fracs), k%len(fracs)
		beta, err := h.BestBeta(algos[ai], workload.TraceNEWS, 0.05)
		if err != nil {
			return err
		}
		f, err := core.Lookup(algos[ai])
		if err != nil {
			return err
		}
		res, err := h.runFactory(workloads[fi], f, sim.Options{CapacityFraction: 0.05, Beta: beta, FetchCosts: costs, Telemetry: h.cfg.Telemetry})
		if err != nil {
			return err
		}
		cells[ai][fi] = res.HitRatio()
		return nil
	})
	if err != nil {
		return nil, err
	}
	g.Rows = append(g.Rows, algos...)
	g.Cells = append(g.Cells, cells...)
	return g, nil
}

// ClosedLoop validates the open-loop trace construction: it derives a
// closed-loop request stream from the subscriptions (each subscriber
// reads with probability SQ after notification) and compares strategy
// hit ratios on both streams (NEWS, capacity 5 %). The strategy ranking
// should agree.
func ClosedLoop(h *Harness) (*Grid, error) {
	open, err := h.Workload(workload.TraceNEWS, 1)
	if err != nil {
		return nil, err
	}
	closed, err := workload.DeriveClosedLoop(open, h.cfg.Seed)
	if err != nil {
		return nil, err
	}
	costs, err := h.fetchCosts(open.Config.Servers)
	if err != nil {
		return nil, err
	}
	g := &Grid{
		Title:     "Validation: open-loop vs closed-loop request streams (NEWS, SQ=1, capacity=5%)",
		RowHeader: "strategy",
		Cols:      []string{"open-loop", "closed-loop"},
	}
	algos := []string{"GD*", "SUB", "SG1", "SG2", "SR", "DC-LAP"}
	streams := []*workload.Workload{open, closed}
	cells := make([][]float64, len(algos))
	for i := range cells {
		cells[i] = make([]float64, len(streams))
	}
	err = gather(len(algos)*len(streams), func(k int) error {
		ai, si := k/len(streams), k%len(streams)
		beta, err := h.BestBeta(algos[ai], workload.TraceNEWS, 0.05)
		if err != nil {
			return err
		}
		f, err := core.Lookup(algos[ai])
		if err != nil {
			return err
		}
		res, err := h.runFactory(streams[si], f, sim.Options{CapacityFraction: 0.05, Beta: beta, FetchCosts: costs, Telemetry: h.cfg.Telemetry})
		if err != nil {
			return err
		}
		cells[ai][si] = res.HitRatio()
		return nil
	})
	if err != nil {
		return nil, err
	}
	g.Rows = append(g.Rows, algos...)
	g.Cells = append(g.Cells, cells...)
	return g, nil
}

// ResponseTimes converts the Fig. 4 comparison into the paper's
// motivating metric: estimated mean response time per request under the
// default latency model (NEWS, SQ=1, capacity 5 %).
func ResponseTimes(h *Harness) (*Grid, error) {
	w, err := h.Workload(workload.TraceNEWS, 1)
	if err != nil {
		return nil, err
	}
	costs, err := h.fetchCosts(w.Config.Servers)
	if err != nil {
		return nil, err
	}
	model := sim.DefaultLatencyModel()
	g := &Grid{
		Title:     "Extension: estimated mean response time in ms (NEWS, SQ=1, capacity=5%)",
		RowHeader: "strategy",
		Cols:      []string{"hit ratio", "ms/request", "vs GD*"},
	}
	algos := []string{"GD*", "SUB", "SG1", "SG2", "SR", "DC-LAP"}
	ratios := make([]float64, len(algos))
	mrts := make([]float64, len(algos))
	err = gather(len(algos), func(i int) error {
		res, err := h.RunTuned(algos[i], workload.TraceNEWS, 0.05, 1)
		if err != nil {
			return err
		}
		mrt, err := res.MeanResponseTime(model, costs)
		if err != nil {
			return err
		}
		ratios[i] = res.HitRatio()
		mrts[i] = mrt
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := mrts[0] // algos[0] is GD*
	for i, algo := range algos {
		g.Rows = append(g.Rows, algo)
		g.Cells = append(g.Cells, []float64{ratios[i], mrts[i], (base - mrts[i]) / base})
	}
	return g, nil
}
