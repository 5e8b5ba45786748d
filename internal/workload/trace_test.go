package workload

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func smallWorkload(t *testing.T) *Workload {
	t.Helper()
	cfg := DefaultConfig(TraceNEWS)
	cfg.DistinctPages = 50
	cfg.ModifiedPages = 20
	cfg.TotalPublished = 200
	cfg.TotalRequests = 1000
	cfg.Servers = 10
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRoundTripFormats(t *testing.T) {
	w := smallWorkload(t)
	for _, format := range []Format{FormatJSON, FormatGob} {
		t.Run(string(format), func(t *testing.T) {
			var buf bytes.Buffer
			if err := w.Write(&buf, format); err != nil {
				t.Fatal(err)
			}
			got, err := Read(&buf, format)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Config, w.Config) {
				t.Error("config round-trip mismatch")
			}
			if !reflect.DeepEqual(got.Requests, w.Requests) {
				t.Error("requests round-trip mismatch")
			}
			if !reflect.DeepEqual(got.Publications, w.Publications) {
				t.Error("publications round-trip mismatch")
			}
			if !reflect.DeepEqual(got.Subscriptions, w.Subscriptions) {
				t.Error("subscriptions round-trip mismatch")
			}
		})
	}
}

func TestUnknownFormat(t *testing.T) {
	w := smallWorkload(t)
	var buf bytes.Buffer
	if err := w.Write(&buf, Format("xml")); err == nil {
		t.Error("unknown write format should error")
	}
	if _, err := Read(&buf, Format("xml")); err == nil {
		t.Error("unknown read format should error")
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	in := strings.NewReader(`{"formatVersion": 99}`)
	if _, err := Read(in, FormatJSON); err == nil {
		t.Error("wrong format version should error")
	}
}

// TestReadRejectsOutOfRangeReferences round-trips a trace through
// JSON with one reference broken at a time. Read must reject each,
// since a replay would index out of range (or, for a short row,
// silently read another page's counts, and for a page of size 0 or
// less, count every request a hit).
func TestReadRejectsOutOfRangeReferences(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(w *Workload)
	}{
		{"row one entry too long", func(w *Workload) { w.Subscriptions[2] = append(w.Subscriptions[2], 1) }},
		{"row one entry too short", func(w *Workload) { w.Subscriptions[2] = w.Subscriptions[2][:w.Config.Servers-1] }},
		{"row missing", func(w *Workload) { w.Subscriptions = w.Subscriptions[1:] }},
		{"request server out of range", func(w *Workload) { w.Requests[5].Server = int32(w.Config.Servers) }},
		{"publication page out of range", func(w *Workload) { w.Publications[5].Page = int32(len(w.Pages)) }},
		{"negative request page", func(w *Workload) { w.Requests[5].Page = -1 }},
		{"negative version", func(w *Workload) { w.Publications[5].Version = -1 }},
		{"negative count", func(w *Workload) { w.Subscriptions[2][3] = -1 }},
		{"page class above 3", func(w *Workload) { w.Pages[4].Class = 4 }},
		{"negative page class", func(w *Workload) { w.Pages[4].Class = -1 }},
		{"zero page size", func(w *Workload) { w.Pages[4].Size = 0 }},
		{"negative page size", func(w *Workload) { w.Pages[4].Size = -5 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := smallWorkload(t)
			c.corrupt(w)
			var buf bytes.Buffer
			if err := w.Write(&buf, FormatJSON); err != nil {
				t.Fatal(err)
			}
			if _, err := Read(&buf, FormatJSON); err == nil {
				t.Error("Read accepted the trace")
			}
		})
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json"), FormatJSON); err == nil {
		t.Error("garbage JSON should error")
	}
	if _, err := Read(strings.NewReader("not gob"), FormatGob); err == nil {
		t.Error("garbage gob should error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	w := smallWorkload(t)
	dir := t.TempDir()
	for _, name := range []string{"trace.json", "trace.gob", "trace.json.gz", "trace.gob.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name)
			if err := w.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			got, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Requests) != len(w.Requests) {
				t.Fatalf("loaded %d requests, want %d", len(got.Requests), len(w.Requests))
			}
		})
	}
}

func TestSaveFileBadExtension(t *testing.T) {
	w := smallWorkload(t)
	if err := w.SaveFile(filepath.Join(t.TempDir(), "trace.xml")); err == nil {
		t.Error("unknown extension should error")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}
