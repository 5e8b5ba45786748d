// Command benchjson converts `go test -bench` text output into a small
// JSON document suitable for publishing as a CI artifact. It reads the
// benchmark output on stdin and writes JSON to stdout (or -out).
//
// When both BenchmarkSimulationRunSequential and
// BenchmarkSimulationRunParallel appear in the input, the document also
// carries a "speedup" block with the sequential/parallel ns-per-op
// ratio — the headline number for the per-proxy sharding work.
//
// Repeated result lines of one benchmark (`go test -count N`) fold into
// one row: the median ns/op, so that one noisy run neither fails nor
// passes the gate, and the largest B/op and allocs/op, which the gate
// holds tight. Iterations sum over the runs.
//
// With -baseline, the parsed results are also compared against a
// committed baseline document (the same JSON shape, e.g.
// BENCH_sim.json): any benchmark present in both that regresses by
// more than -max-ns-regression in ns/op or -max-allocs-regression in
// allocs/op fails the run with a non-zero exit, turning the CI bench
// smoke into a regression gate. Benchmarks only on one side are
// reported but never fail the gate, so adding or retiring a bench
// doesn't break CI.
//
// A second, independent mode gates end-to-end soak results instead of
// micro-benchmarks: -e2e reads a BENCH_e2e.json document produced by
// `pubsubload -bench-out` and compares it against the committed
// baseline named by -e2e-baseline. Delivery p99 may regress by at most
// -max-delivery-regression (relative), and each strategy's
// live-vs-sim parity deltas may exceed the baseline's by at most
// -max-parity-slack (absolute). A strategy present in the baseline but
// missing from the current run fails the gate — a soak that silently
// stopped covering a strategy is itself a regression. Stdin is not
// read in this mode.
//
// Usage:
//
//	go test -bench='BenchmarkSimulationRun' -benchtime=1x -count=5 . | benchjson -out bench.json
//	go test -bench=. -benchtime=1x . | benchjson -baseline BENCH_sim.json
//	benchjson -e2e current_e2e.json -e2e-baseline BENCH_e2e.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Speedup compares the sequential and parallel simulation benches.
type Speedup struct {
	SequentialNsPerOp float64 `json:"sequential_ns_per_op"`
	ParallelNsPerOp   float64 `json:"parallel_ns_per_op"`
	Ratio             float64 `json:"ratio"`
}

// CodecGain compares the JSON and binary variants of the broker
// fan-out bench — the headline numbers of the binary wire protocol:
// how much cheaper a publish fan-out is per op (throughput_ratio) and
// how many fewer allocations it makes (allocs_ratio).
type CodecGain struct {
	JSONNsPerOp       float64 `json:"json_ns_per_op"`
	BinaryNsPerOp     float64 `json:"binary_ns_per_op"`
	ThroughputRatio   float64 `json:"throughput_ratio"`
	JSONAllocsPerOp   int64   `json:"json_allocs_per_op"`
	BinaryAllocsPerOp int64   `json:"binary_allocs_per_op"`
	AllocsRatio       float64 `json:"allocs_ratio"`
}

// Report is the artifact document.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Speedup    *Speedup    `json:"speedup,omitempty"`
	CodecGain  *CodecGain  `json:"codec_gain,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("out", "", "write JSON to this file instead of stdout")
	baseline := fs.String("baseline", "", "baseline report JSON to gate against (empty disables the gate)")
	maxNs := fs.Float64("max-ns-regression", 0.15, "fail when ns/op regresses by more than this fraction over the baseline")
	maxAllocs := fs.Float64("max-allocs-regression", 0.10, "fail when allocs/op regresses by more than this fraction over the baseline")
	e2e := fs.String("e2e", "", "gate a pubsubload BENCH_e2e.json document instead of parsing bench output")
	e2eBaseline := fs.String("e2e-baseline", "", "committed e2e baseline to gate -e2e against")
	maxDelivery := fs.Float64("max-delivery-regression", 0.15, "fail when e2e delivery p99 regresses by more than this fraction over the baseline")
	paritySlack := fs.Float64("max-parity-slack", 0.10, "fail when an e2e parity delta exceeds the baseline's by more than this absolute slack")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *e2e != "" {
		if *e2eBaseline == "" {
			return fmt.Errorf("-e2e requires -e2e-baseline")
		}
		cur, err := loadE2E(*e2e)
		if err != nil {
			return fmt.Errorf("e2e: %w", err)
		}
		base, err := loadE2E(*e2eBaseline)
		if err != nil {
			return fmt.Errorf("e2e baseline: %w", err)
		}
		return gateE2E(os.Stderr, base, cur, *maxDelivery, *paritySlack)
	}
	rep, err := parse(in)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines found on stdin")
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if *baseline != "" {
		base, err := loadReport(*baseline)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		return gate(os.Stderr, base, rep, *maxNs, *maxAllocs)
	}
	return nil
}

// loadReport reads a previously emitted Report document.
func loadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// E2EStrategy mirrors one strategy entry of pubsubload's BENCH_e2e.json.
type E2EStrategy struct {
	Name          string  `json:"name"`
	LiveHitRatio  float64 `json:"liveHitRatio"`
	SimHitRatio   float64 `json:"simHitRatio"`
	HitRatioDelta float64 `json:"hitRatioDelta"`
	TrafficDelta  float64 `json:"trafficDelta"`
}

// E2EReport mirrors the BENCH_e2e.json document emitted by
// `pubsubload -bench-out`. The shape is duplicated here rather than
// imported so the two main packages stay independent; the soak test in
// cmd/pubsubload pins the JSON field names.
type E2EReport struct {
	GOOS          string           `json:"goos"`
	GOARCH        string           `json:"goarch"`
	DeliveryP50NS int64            `json:"deliveryP50Ns"`
	DeliveryP99NS int64            `json:"deliveryP99Ns"`
	StageP99NS    map[string]int64 `json:"stageP99Ns,omitempty"`
	Strategies    []E2EStrategy    `json:"strategies"`
}

func loadE2E(path string) (*E2EReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep E2EReport
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// gateE2E compares a soak run against the committed e2e baseline.
// Delivery p99 is gated relatively (latency scales with hardware, so a
// fraction transfers across machines); parity deltas are gated with
// absolute slack on top of the baseline's own delta (parity is
// dimensionless and should not drift at all — the slack only absorbs
// run-to-run replay noise). A baseline strategy missing from the
// current run fails: losing coverage is a regression, not a skip.
func gateE2E(log io.Writer, base, cur *E2EReport, maxDelivery, paritySlack float64) error {
	var failures []string
	if base.DeliveryP99NS > 0 {
		frac := float64(cur.DeliveryP99NS)/float64(base.DeliveryP99NS) - 1
		fmt.Fprintf(log, "e2e: delivery p99 %dns -> %dns (%+.1f%%, limit +%.0f%%)\n",
			base.DeliveryP99NS, cur.DeliveryP99NS, frac*100, maxDelivery*100)
		if frac > maxDelivery {
			failures = append(failures, fmt.Sprintf("delivery p99 regressed %+.1f%%", frac*100))
		}
	}
	byName := make(map[string]E2EStrategy, len(cur.Strategies))
	for _, s := range cur.Strategies {
		byName[s.Name] = s
	}
	for _, b := range base.Strategies {
		c, ok := byName[b.Name]
		if !ok {
			fmt.Fprintf(log, "e2e: %s: in baseline but not in this run\n", b.Name)
			failures = append(failures, fmt.Sprintf("strategy %s missing from this run", b.Name))
			continue
		}
		delete(byName, b.Name)
		fmt.Fprintf(log, "e2e: %s: hit-ratio delta %.4f -> %.4f (limit %.4f)\n",
			b.Name, b.HitRatioDelta, c.HitRatioDelta, b.HitRatioDelta+paritySlack)
		if c.HitRatioDelta > b.HitRatioDelta+paritySlack {
			failures = append(failures, fmt.Sprintf("%s hit-ratio parity widened to %.4f", b.Name, c.HitRatioDelta))
		}
		fmt.Fprintf(log, "e2e: %s: traffic delta %.4f -> %.4f (limit %.4f)\n",
			b.Name, b.TrafficDelta, c.TrafficDelta, b.TrafficDelta+paritySlack)
		if c.TrafficDelta > b.TrafficDelta+paritySlack {
			failures = append(failures, fmt.Sprintf("%s traffic parity widened to %.4f", b.Name, c.TrafficDelta))
		}
	}
	for name := range byName {
		fmt.Fprintf(log, "e2e: %s: new strategy, no baseline, skipped\n", name)
	}
	if len(failures) > 0 {
		return fmt.Errorf("e2e regression gate failed: %s", strings.Join(failures, "; "))
	}
	return nil
}

// gate compares current against baseline per benchmark name and fails
// when ns/op or allocs/op regress past the allowed fractions. Every
// comparison is printed so the CI log shows the margin, not just the
// verdict.
func gate(log io.Writer, base, cur *Report, maxNs, maxAllocs float64) error {
	byName := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	var failures []string
	for _, c := range cur.Benchmarks {
		b, ok := byName[c.Name]
		if !ok {
			fmt.Fprintf(log, "gate: %s: no baseline, skipped\n", c.Name)
			continue
		}
		delete(byName, c.Name)
		if b.NsPerOp > 0 {
			frac := c.NsPerOp/b.NsPerOp - 1
			fmt.Fprintf(log, "gate: %s: ns/op %.0f -> %.0f (%+.1f%%, limit +%.0f%%)\n",
				c.Name, b.NsPerOp, c.NsPerOp, frac*100, maxNs*100)
			if frac > maxNs {
				failures = append(failures, fmt.Sprintf("%s ns/op regressed %+.1f%%", c.Name, frac*100))
			}
		}
		if b.AllocsPerOp > 0 {
			frac := float64(c.AllocsPerOp)/float64(b.AllocsPerOp) - 1
			fmt.Fprintf(log, "gate: %s: allocs/op %d -> %d (%+.1f%%, limit +%.0f%%)\n",
				c.Name, b.AllocsPerOp, c.AllocsPerOp, frac*100, maxAllocs*100)
			if frac > maxAllocs {
				failures = append(failures, fmt.Sprintf("%s allocs/op regressed %+.1f%%", c.Name, frac*100))
			}
		}
	}
	for name := range byName {
		fmt.Fprintf(log, "gate: %s: in baseline but not in this run\n", name)
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench regression gate failed: %s", strings.Join(failures, "; "))
	}
	return nil
}

// parse scans `go test -bench` output. Result lines look like
//
//	BenchmarkSimulationRun-8   12   98765432 ns/op   1234 B/op   56 allocs/op
//
// Header lines (goos/goarch/cpu) are captured when present; everything
// else (pkg lines, PASS, ok) is ignored.
func parse(in io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, ok := parseResultLine(line)
		if !ok {
			continue
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep.Benchmarks = fold(rep.Benchmarks)
	rep.Speedup = speedup(rep.Benchmarks)
	rep.CodecGain = codecGain(rep.Benchmarks)
	return rep, nil
}

func parseResultLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: baseName(fields[0]), Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		}
	}
	return b, true
}

// fold merges the result lines of each benchmark into one row, in the
// order the benchmarks first appear: the median ns/op (the mean of the
// middle two for an even count), the largest B/op and allocs/op, and the
// iterations summed.
func fold(lines []Benchmark) []Benchmark {
	var names []string
	runs := make(map[string][]Benchmark)
	for _, b := range lines {
		if _, seen := runs[b.Name]; !seen {
			names = append(names, b.Name)
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	out := make([]Benchmark, 0, len(names))
	for _, name := range names {
		rs := runs[name]
		row := Benchmark{Name: name}
		ns := make([]float64, len(rs))
		for i, r := range rs {
			ns[i] = r.NsPerOp
			row.Iterations += r.Iterations
			row.BytesPerOp = max(row.BytesPerOp, r.BytesPerOp)
			row.AllocsPerOp = max(row.AllocsPerOp, r.AllocsPerOp)
		}
		slices.Sort(ns)
		row.NsPerOp = (ns[(len(ns)-1)/2] + ns[len(ns)/2]) / 2
		out = append(out, row)
	}
	return out
}

// baseName strips the trailing -GOMAXPROCS suffix Go appends to
// benchmark names ("BenchmarkFoo-8" → "BenchmarkFoo").
func baseName(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func speedup(benches []Benchmark) *Speedup {
	var seq, par float64
	for _, b := range benches {
		switch b.Name {
		case "BenchmarkSimulationRunSequential":
			seq = b.NsPerOp
		case "BenchmarkSimulationRunParallel":
			par = b.NsPerOp
		}
	}
	if seq == 0 || par == 0 {
		return nil
	}
	return &Speedup{SequentialNsPerOp: seq, ParallelNsPerOp: par, Ratio: seq / par}
}

func codecGain(benches []Benchmark) *CodecGain {
	var jsonB, binB *Benchmark
	for i := range benches {
		switch benches[i].Name {
		case "BenchmarkBrokerFanoutJSON":
			jsonB = &benches[i]
		case "BenchmarkBrokerFanoutBinary":
			binB = &benches[i]
		}
	}
	if jsonB == nil || binB == nil || binB.NsPerOp == 0 || binB.AllocsPerOp == 0 {
		return nil
	}
	return &CodecGain{
		JSONNsPerOp:       jsonB.NsPerOp,
		BinaryNsPerOp:     binB.NsPerOp,
		ThroughputRatio:   jsonB.NsPerOp / binB.NsPerOp,
		JSONAllocsPerOp:   jsonB.AllocsPerOp,
		BinaryAllocsPerOp: binB.AllocsPerOp,
		AllocsRatio:       float64(jsonB.AllocsPerOp) / float64(binB.AllocsPerOp),
	}
}
