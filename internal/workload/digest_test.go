package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// generationDigests are the SHA-256 digests (first 16 hex digits) of
// generated workloads and of their event views, recorded before the
// generator's sorts, server pools and view construction were reworked
// for speed. The view digests were re-recorded from that same code with
// only the per-server subscription columns left out of the hash, when
// the view stopped holding them. Any change to a page, publication,
// request, subscription count or view entry changes a digest; a
// speed-up must leave them all as they are.
var generationDigests = map[string]struct{ workload, view string }{
	"NEWS/1":             {"89726c47f37fcbcf", "22e96caa28e140b1"},
	"NEWS/50":            {"f8b28d46e06c8e68", "8e2738365a8cc831"},
	"ALTERNATIVE/1":      {"2565e5fc2bd27859", "e61f92cc476c2963"},
	"ALTERNATIVE/50":     {"6a9ea2e73988d932", "4f218682d297d3bd"},
	"imperfect-SQ-mixed": {"97b719b297336830", "03a3a83cef6455ad"},
	"closed-loop/50":     {"35434fc2a2625027", "c18cdd8827ced96c"},
}

// digestWriter feeds fixed-width little-endian integers to a hash.
type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digestWriter) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digestWriter) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digestWriter) int32s(vs []int32) {
	d.int(int64(len(vs)))
	for _, v := range vs {
		d.int(int64(v))
	}
}

func (d *digestWriter) sum() string {
	s := d.h.Sum(nil)
	return hex.EncodeToString(s[:8])
}

// workloadDigest hashes the generated streams: pages, publications,
// requests and the subscription matrix.
func workloadDigest(w *Workload) string {
	d := &digestWriter{h: sha256.New()}
	d.int(int64(len(w.Pages)))
	for _, p := range w.Pages {
		d.int(int64(p.ID))
		d.int(int64(p.Rank))
		d.int(p.Size)
		d.float(p.FirstPublish)
		d.int(int64(p.Class))
		d.int(int64(p.Versions))
	}
	d.int(int64(len(w.Publications)))
	for _, p := range w.Publications {
		d.float(p.Time)
		d.int(int64(p.Page))
		d.int(int64(p.Version))
	}
	d.int(int64(len(w.Requests)))
	for _, r := range w.Requests {
		d.float(r.Time)
		d.int(int64(r.Page))
		d.int(int64(r.Server))
	}
	d.int(int64(len(w.Subscriptions)))
	for _, row := range w.Subscriptions {
		d.int32s(row)
	}
	return d.sum()
}

// viewDigest hashes the event view: every stream entry, hour index and
// unique-byte total.
func viewDigest(v *EventView) string {
	d := &digestWriter{h: sha256.New()}
	d.int(int64(v.Hours))
	d.int(int64(len(v.Streams)))
	for s, stream := range v.Streams {
		d.int(int64(len(stream)))
		for _, e := range stream {
			d.int(int64(e.pageReq))
			d.int(int64(e.Version))
		}
		d.int32s(v.HourStarts[s])
		d.int(v.UniqueBytes[s])
	}
	return d.sum()
}

// TestGenerateDigests pins the generator's output bit for bit: both
// traces at the paper's scale and at scale 50, a small config with
// imperfect subscriptions (SQ < 1) and a mixed request stream
// (NotificationDrivenFrac < 1), and the closed-loop stream derived
// from the scale-50 NEWS workload. TestGenerateDeterministic compares
// two runs of the same code; this test compares against recorded
// output, so a faster generator that draws or orders differently fails.
func TestGenerateDigests(t *testing.T) {
	imperfect := testConfig()
	imperfect.SQ = 0.6
	imperfect.NotificationDrivenFrac = 0.7
	cases := []struct {
		key string
		cfg Config
	}{
		{"NEWS/1", ScaledConfig(TraceNEWS, 1)},
		{"NEWS/50", ScaledConfig(TraceNEWS, 50)},
		{"ALTERNATIVE/1", ScaledConfig(TraceALTERNATIVE, 1)},
		{"ALTERNATIVE/50", ScaledConfig(TraceALTERNATIVE, 50)},
		{"imperfect-SQ-mixed", imperfect},
	}
	check := func(key string, w *Workload) {
		t.Helper()
		want := generationDigests[key]
		if got := workloadDigest(w); got != want.workload {
			t.Errorf("%s: workload digest %s, want %s", key, got, want.workload)
		}
		if got := viewDigest(w.Events()); got != want.view {
			t.Errorf("%s: event view digest %s, want %s", key, got, want.view)
		}
	}
	for _, c := range cases {
		check(c.key, mustGenerate(t, c.cfg))
	}
	closed, err := DeriveClosedLoop(mustGenerate(t, ScaledConfig(TraceNEWS, 50)), 7)
	if err != nil {
		t.Fatal(err)
	}
	check("closed-loop/50", closed)
}
