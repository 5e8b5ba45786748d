package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pubsubcd/internal/sim"
	"pubsubcd/internal/workload"
)

func TestRunCatalog(t *testing.T) {
	if err := run([]string{"-catalog"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSmallSimulation(t *testing.T) {
	if err := run([]string{"-strategy", "GD*", "-scale", "100", "-hourly"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithAnalyze(t *testing.T) {
	if err := run([]string{"-strategy", "SUB", "-scale", "100", "-analyze"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLoadedTrace(t *testing.T) {
	cfg := workload.ScaledConfig(workload.TraceNEWS, 100)
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.gob")
	if err := w.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-strategy", "DC-LAP", "-load", path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-strategy", "NOPE", "-scale", "100"}); err == nil {
		t.Error("unknown strategy should error")
	}
	if err := run([]string{"-trace", "BOGUS", "-scale", "100"}); err == nil {
		t.Error("unknown trace should error")
	}
	if err := run([]string{"-load", "/nonexistent/file.gob"}); err == nil {
		t.Error("missing trace file should error")
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Error("bad flag should error")
	}
}

// TestFlagValidation pins the up-front flag checks: out-of-range values
// must fail fast with a clear error instead of clamping or surfacing a
// late simulator error.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"zero capacity", []string{"-capacity", "0", "-scale", "100"}, "-capacity"},
		{"capacity above 1", []string{"-capacity", "1.5", "-scale", "100"}, "-capacity"},
		{"NaN capacity", []string{"-capacity", "NaN", "-scale", "100"}, "-capacity"},
		{"NaN beta", []string{"-beta", "NaN", "-scale", "100"}, "-beta"},
		{"zero beta", []string{"-strategy", "GD*", "-beta", "0", "-scale", "100"}, "-beta"},
		{"negative beta", []string{"-beta", "-1", "-scale", "100"}, "-beta"},
		{"infinite beta", []string{"-beta", "+Inf", "-scale", "100"}, "-beta"},
		{"zero scale", []string{"-scale", "0"}, "-scale"},
		{"negative scale", []string{"-scale", "-3"}, "-scale"},
		{"zero parallel", []string{"-parallel", "0", "-scale", "100"}, "-parallel"},
		{"negative parallel", []string{"-parallel", "-1", "-scale", "100"}, "-parallel"},
		{"zero sq", []string{"-sq", "0", "-scale", "100"}, "-sq"},
		{"sq above 1", []string{"-sq", "2", "-scale", "100"}, "-sq"},
		{"NaN sq", []string{"-sq", "NaN", "-scale", "100"}, "-sq"},
	} {
		err := run(tc.args)
		if err == nil {
			t.Errorf("%s: expected an error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name flag %s", tc.name, err, tc.want)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected into a buffer.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	errRun := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if errRun != nil {
		t.Fatal(errRun)
	}
	return out
}

// TestJSONOutput checks -json emits a parseable sim.Result, and that
// the parallel and sequential runs emit byte-identical documents.
func TestJSONOutput(t *testing.T) {
	seq := captureStdout(t, func() error {
		return run([]string{"-strategy", "SG2", "-scale", "100", "-parallel", "1", "-json"})
	})
	par := captureStdout(t, func() error {
		return run([]string{"-strategy", "SG2", "-scale", "100", "-parallel", "4", "-json"})
	})
	if seq != par {
		t.Error("-json output differs between -parallel 1 and -parallel 4")
	}
	var res sim.Result
	if err := json.Unmarshal([]byte(seq), &res); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if res.Strategy != "SG2" || res.Requests == 0 {
		t.Errorf("decoded result looks wrong: strategy=%q requests=%d", res.Strategy, res.Requests)
	}
	if res.HitRatio() <= 0 || res.HitRatio() > 1 {
		t.Errorf("hit ratio %g outside (0, 1]", res.HitRatio())
	}
	if len(res.HourlyHits) != 168 {
		t.Errorf("hourly series has %d entries, want 168", len(res.HourlyHits))
	}
}
