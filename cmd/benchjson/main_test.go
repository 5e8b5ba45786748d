package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: pubsubcd
cpu: Intel(R) Xeon(R) CPU
BenchmarkSimulationRun-8                 	       3	 400000000 ns/op	 1024 B/op	      12 allocs/op
BenchmarkSimulationRunSequential-8       	       2	 600000000 ns/op
BenchmarkSimulationRunParallel-8         	       6	 200000000 ns/op	  512 B/op	       8 allocs/op
PASS
ok  	pubsubcd	4.212s
`

func TestParseSample(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" {
		t.Errorf("header parse: goos=%q goarch=%q", rep.GOOS, rep.GOARCH)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkSimulationRun" || b.Iterations != 3 || b.NsPerOp != 4e8 {
		t.Errorf("first bench parsed wrong: %+v", b)
	}
	if b.BytesPerOp != 1024 || b.AllocsPerOp != 12 {
		t.Errorf("alloc stats parsed wrong: %+v", b)
	}
	if rep.Speedup == nil {
		t.Fatal("speedup block missing")
	}
	if math.Abs(rep.Speedup.Ratio-3.0) > 1e-9 {
		t.Errorf("speedup ratio = %g, want 3.0", rep.Speedup.Ratio)
	}
}

// TestParseFoldsRepeatedRuns checks that the five result lines of a
// -count=5 run become one row: the median ns/op, the largest B/op and
// allocs/op, and the summed iterations.
func TestParseFoldsRepeatedRuns(t *testing.T) {
	rep, err := parse(strings.NewReader(`BenchmarkSimulationRun-2   1   4300000 ns/op   1000 B/op   4600 allocs/op
BenchmarkSimulationRun-2   1   9900000 ns/op   1000 B/op   4600 allocs/op
BenchmarkSimulationRun-2   1   4100000 ns/op   1200 B/op   4605 allocs/op
BenchmarkSimulationRun-2   1   4200000 ns/op   1000 B/op   4601 allocs/op
BenchmarkSimulationRun-2   1   3000000 ns/op    900 B/op   4600 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	want := []Benchmark{{Name: "BenchmarkSimulationRun", Iterations: 5, NsPerOp: 4200000, BytesPerOp: 1200, AllocsPerOp: 4605}}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0] != want[0] {
		t.Errorf("folded rows = %+v, want %+v", rep.Benchmarks, want)
	}
}

func TestParseWithoutPair(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkFoo-4   10   123 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup != nil {
		t.Error("speedup block present without the sequential/parallel pair")
	}
	if rep.Benchmarks[0].Name != "BenchmarkFoo" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", rep.Benchmarks[0].Name)
	}
}

func TestRunEmitsJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(sampleOutput), &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Speedup == nil || rep.Speedup.Ratio != 3.0 {
		t.Errorf("round-tripped speedup wrong: %+v", rep.Speedup)
	}
}

func TestRunEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader("PASS\n"), &out); err == nil {
		t.Error("expected an error for input with no benchmark lines")
	}
}

func gateReports(nsFactor, allocFactor float64) (base, cur *Report) {
	base = &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSimulationRun", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchmarkRetired", NsPerOp: 10},
	}}
	cur = &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSimulationRun", NsPerOp: 1000 * nsFactor, AllocsPerOp: int64(100 * allocFactor)},
		{Name: "BenchmarkBrandNew", NsPerOp: 5},
	}}
	return base, cur
}

func TestGatePassesWithinBudget(t *testing.T) {
	base, cur := gateReports(1.10, 1.05) // +10% ns, +5% allocs: inside 15%/10%
	var log bytes.Buffer
	if err := gate(&log, base, cur, 0.15, 0.10); err != nil {
		t.Fatalf("gate failed inside budget: %v\n%s", err, log.String())
	}
	// New and retired benches are reported, not failed.
	if !strings.Contains(log.String(), "BenchmarkBrandNew") || !strings.Contains(log.String(), "BenchmarkRetired") {
		t.Errorf("gate log should mention unmatched benches:\n%s", log.String())
	}
}

func TestGateFailsOnNsRegression(t *testing.T) {
	base, cur := gateReports(1.20, 1.0) // +20% ns > 15%
	var log bytes.Buffer
	err := gate(&log, base, cur, 0.15, 0.10)
	if err == nil || !strings.Contains(err.Error(), "ns/op") {
		t.Fatalf("gate should fail on ns/op regression, got %v", err)
	}
}

func TestGateFailsOnAllocRegression(t *testing.T) {
	base, cur := gateReports(1.0, 1.2) // +20% allocs > 10%
	var log bytes.Buffer
	err := gate(&log, base, cur, 0.15, 0.10)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("gate should fail on allocs/op regression, got %v", err)
	}
}

func e2eReports() (base, cur *E2EReport) {
	base = &E2EReport{
		DeliveryP99NS: 4_000_000,
		Strategies: []E2EStrategy{
			{Name: "GD*", HitRatioDelta: 0.001, TrafficDelta: 0.002},
			{Name: "LRU", HitRatioDelta: 0.000, TrafficDelta: 0.000},
		},
	}
	cur = &E2EReport{
		DeliveryP99NS: 4_200_000, // +5%
		Strategies: []E2EStrategy{
			{Name: "GD*", HitRatioDelta: 0.003, TrafficDelta: 0.004},
			{Name: "LRU", HitRatioDelta: 0.001, TrafficDelta: 0.002},
		},
	}
	return base, cur
}

func TestGateE2EPassesWithinBudget(t *testing.T) {
	base, cur := e2eReports()
	var log bytes.Buffer
	if err := gateE2E(&log, base, cur, 0.15, 0.10); err != nil {
		t.Fatalf("e2e gate failed inside budget: %v\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "delivery p99") {
		t.Errorf("e2e gate log should show the delivery margin:\n%s", log.String())
	}
}

func TestGateE2EFailsOnDeliveryRegression(t *testing.T) {
	base, cur := e2eReports()
	cur.DeliveryP99NS = base.DeliveryP99NS * 2 // +100% > 15%
	var log bytes.Buffer
	err := gateE2E(&log, base, cur, 0.15, 0.10)
	if err == nil || !strings.Contains(err.Error(), "delivery p99") {
		t.Fatalf("e2e gate should fail on delivery p99 regression, got %v", err)
	}
}

func TestGateE2EFailsOnParityDrift(t *testing.T) {
	base, cur := e2eReports()
	cur.Strategies[0].HitRatioDelta = base.Strategies[0].HitRatioDelta + 0.2 // > 0.10 slack
	var log bytes.Buffer
	err := gateE2E(&log, base, cur, 0.15, 0.10)
	if err == nil || !strings.Contains(err.Error(), "hit-ratio parity") {
		t.Fatalf("e2e gate should fail on hit-ratio parity drift, got %v", err)
	}
}

func TestGateE2EFailsOnMissingStrategy(t *testing.T) {
	base, cur := e2eReports()
	cur.Strategies = cur.Strategies[:1] // drop LRU
	var log bytes.Buffer
	err := gateE2E(&log, base, cur, 0.15, 0.10)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("e2e gate should fail when a baseline strategy disappears, got %v", err)
	}
	// A new strategy on the current side is fine.
	base, cur = e2eReports()
	cur.Strategies = append(cur.Strategies, E2EStrategy{Name: "GD*-exp"})
	log.Reset()
	if err := gateE2E(&log, base, cur, 0.15, 0.10); err != nil {
		t.Fatalf("new strategy should not fail the gate: %v", err)
	}
}

func TestRunE2EMode(t *testing.T) {
	dir := t.TempDir()
	base, cur := e2eReports()
	basePath := dir + "/base.json"
	curPath := dir + "/cur.json"
	for path, rep := range map[string]*E2EReport{basePath: base, curPath: cur} {
		raw, _ := json.Marshal(rep)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	// Stdin is unused in e2e mode: pass an empty reader on purpose.
	if err := run([]string{"-e2e", curPath, "-e2e-baseline", basePath}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("e2e mode inside budget failed: %v", err)
	}
	if err := run([]string{"-e2e", curPath}, strings.NewReader(""), &out); err == nil {
		t.Error("-e2e without -e2e-baseline should fail")
	}
	// Tightening the delivery limit below the +5% drift must fail.
	if err := run([]string{"-e2e", curPath, "-e2e-baseline", basePath, "-max-delivery-regression", "0.01"}, strings.NewReader(""), &out); err == nil {
		t.Error("e2e gate should fail with a 1% delivery budget against +5% drift")
	}
}

func TestRunWithBaselineFlag(t *testing.T) {
	dir := t.TempDir()
	basePath := dir + "/base.json"
	baseRep := &Report{Benchmarks: []Benchmark{{Name: "BenchmarkSimulationRun", NsPerOp: 400000000, AllocsPerOp: 12}}}
	raw, _ := json.Marshal(baseRep)
	if err := os.WriteFile(basePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	// sampleOutput's BenchmarkSimulationRun matches the baseline exactly.
	if err := run([]string{"-baseline", basePath}, strings.NewReader(sampleOutput), &out); err != nil {
		t.Fatalf("gate on identical numbers failed: %v", err)
	}
	// A much tighter baseline makes the same input fail.
	tight := &Report{Benchmarks: []Benchmark{{Name: "BenchmarkSimulationRun", NsPerOp: 100, AllocsPerOp: 12}}}
	raw, _ = json.Marshal(tight)
	if err := os.WriteFile(basePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-baseline", basePath}, strings.NewReader(sampleOutput), &out); err == nil {
		t.Fatal("gate should fail against a much faster baseline")
	}
}
