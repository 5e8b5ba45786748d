package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	if err := run([]string{"-out", out, "-scale", "100"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"Claim checklist", "Known deviations", "Workload snapshot (NEWS)", "Workload snapshot (ALTERNATIVE)"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-out", "/nonexistent-dir/x.md", "-scale", "100"}); err == nil {
		t.Error("unwritable output should error")
	}
	if err := run([]string{"-out", filepath.Join(t.TempDir(), "x.md"), "-scale", "0"}); err == nil {
		t.Error("-scale 0 should error")
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Error("bad flag should error")
	}
}
