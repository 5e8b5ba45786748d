package report

import (
	"bytes"
	"strings"
	"testing"

	"pubsubcd/internal/experiments"
	"pubsubcd/internal/workload"
)

func collectTestData(t *testing.T) *Data {
	t.Helper()
	h := experiments.New(experiments.Config{Scale: 20, Seed: 1, TopologySeed: 7})
	d, err := Collect(h, 20)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCollectAndGenerate(t *testing.T) {
	d := collectTestData(t)
	var buf bytes.Buffer
	if err := Generate(d, &buf, "go test"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# EXPERIMENTS",
		"Claim checklist",
		"Table 2 — relative improvement",
		"Measured results",
		"Fig. 3",
		"Fig. 4",
		"Fig. 5",
		"Beta sweep",
		"Baselines",
		"DC-LAP partition bounds",
		"mixed request streams",
		"Table 1",
		"Fig. 6",
		"Fig. 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Every claim must be present with a verdict.
	for i := range Claims() {
		marker := "| " + itoa(i+1) + " |"
		if !strings.Contains(out, marker) {
			t.Errorf("claim %d missing from report", i+1)
		}
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func TestClaimsAllRunnable(t *testing.T) {
	d := collectTestData(t)
	reproduced := 0
	for _, c := range Claims() {
		verdict, detail := c.Check(d)
		if verdict < Reproduced || verdict > Differs {
			t.Errorf("%s: invalid verdict %v", c.ID, verdict)
		}
		if detail == "" {
			t.Errorf("%s: empty detail", c.ID)
		}
		if verdict == Reproduced {
			reproduced++
		}
		t.Logf("%-28s %-10s %s", c.ID, verdict, detail)
	}
	// The reproduction must land the majority of the paper's claims
	// even at reduced scale.
	if reproduced < len(Claims())/2 {
		t.Errorf("only %d/%d claims reproduced", reproduced, len(Claims()))
	}
}

func TestVerdictString(t *testing.T) {
	if Reproduced.String() != "REPRODUCED" || Partial.String() != "PARTIAL" || Differs.String() != "DIFFERS" {
		t.Error("verdict strings wrong")
	}
	if !strings.Contains(Verdict(9).String(), "9") {
		t.Error("unknown verdict should format numerically")
	}
}

func TestWorkloadSnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := WorkloadSnapshot(&buf, workload.TraceNEWS, 50, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Publishing stream") {
		t.Error("snapshot missing analysis body")
	}
}
