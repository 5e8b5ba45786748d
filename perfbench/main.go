// Command perfbench is the repository's benchmark. It drives the
// simulator, the live broker with in-process proxies, and a two-node
// cluster from generated inputs, checks their outputs, and prints one
// JSON result line:
//
//	perfbench --workload sim_paper|live_news|cluster_fanout --seed N --seconds S --trace 0|1
//
// With --trace 0 the line carries the end-to-end metrics of the named
// workload. With --trace 1 the traced suite runs every workload with
// timing decorators installed around each layer and reports the
// per-layer metrics instead. NOTES.md explains the workloads, metrics
// and sizing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is a workload-specific metric printed in the human-readable
// table: unit, value and the number of samples behind it.
type row struct {
	name    string
	unit    string
	value   float64
	samples int64
}

// outcome is what one workload run reports.
type outcome struct {
	// attempted and failed are the result line's; failed counts ops that
	// errored, lost or duplicated notifications or returned a wrong body.
	attempted, failed int64
	// late counts ops that completed but delivered later than
	// broker.DefaultPublishSLO; they count in fail_ratio.
	late int64
	// problems lists output-check violations; any makes correct false.
	problems []string
	// metrics are the result line's: the end-to-end metrics, or the
	// per-layer ones from the traced suite.
	metrics map[string]metric
	// rows are the workload-specific metrics of the table.
	rows []row
}

func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// latencyRows appends the median and the highest well-supported tail
// of h, in microseconds, with the sample count.
func (o *outcome) latencyRows(prefix string, h *hist) {
	o.rows = append(o.rows, row{prefix + "_p50_us", "us", h.quantile(0.5) / 1e3, h.n})
	if q, ok := h.tail(); ok {
		name := fmt.Sprintf("%s_p%g_us", prefix, q*100)
		o.rows = append(o.rows, row{name, "us", h.quantile(q) / 1e3, h.n})
	}
}

// failRatioRow appends fail_ratio, failed or late ops over attempted,
// and the late ops on their own.
func (o *outcome) failRatioRow() {
	ratio := 0.0
	if o.attempted > 0 {
		ratio = float64(o.failed+o.late) / float64(o.attempted)
	}
	o.rows = append(o.rows,
		row{"fail_ratio", "1", ratio, o.attempted},
		row{"slo_misses", "count", float64(o.late), o.attempted})
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

var workloads = map[string]func(config) (*outcome, error){
	"sim_paper":      runSimPaper,
	"live_news":      runLiveNews,
	"cluster_fanout": runClusterFanout,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: sim_paper, live_news or cluster_fanout")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced suite and reports per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sim_paper|live_news|cluster_fanout --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if cfg.trace {
		run = runTracedSuite
	}
	start := time.Now()
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	printTable(cfg, out, time.Since(start))
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(out.problems) > 0 {
		os.Exit(1)
	}
}

func printTable(cfg config, out *outcome, wall time.Duration) {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%v wall=%.1fs\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, wall.Seconds())
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %16.4f %s\n", n, out.metrics[n].Value, out.metrics[n].Unit)
	}
	for _, r := range out.rows {
		fmt.Printf("%-40s %16.4f %-6s n=%d\n", r.name, r.value, r.unit, r.samples)
	}
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
}
