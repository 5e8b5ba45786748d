package sim

import (
	"fmt"
	"testing"

	"pubsubcd/internal/core"
	"pubsubcd/internal/workload"
)

// recorder is a strategy that caches nothing and checks every
// subscription count it receives against the workload's matrix.
type recorder struct {
	t      *testing.T
	w      *workload.Workload
	server int
	// pushes and requests count the calls; zeroRequests counts the
	// requests that arrived with no matching subscription; bad counts
	// the wrong counts reported, up to five.
	pushes, requests, zeroRequests, bad int
}

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) check(op string, p core.PageMeta, subs int) {
	if want := r.w.SubCount(p.ID, r.server); subs != want && r.bad < 5 {
		r.bad++
		r.t.Errorf("server %d: %s of page %d got %d subscriptions, want %d", r.server, op, p.ID, subs, want)
	}
}

func (r *recorder) Push(p core.PageMeta, version, subs int) bool {
	r.pushes++
	r.check("Push", p, subs)
	return false
}

func (r *recorder) Request(p core.PageMeta, version, subs int) (hit, stored bool) {
	r.requests++
	if subs == 0 {
		r.zeroRequests++
	}
	r.check("Request", p, subs)
	return false, false
}

func (r *recorder) Used() int64     { return 0 }
func (r *recorder) Capacity() int64 { return 1 }
func (r *recorder) Len() int        { return 0 }

// TestShardsPassWorkloadSubCounts replays both traces at scale 50
// through a recording strategy and requires every Push and Request to
// carry w.SubCount(page, server) for the shard's own server. With
// NotificationDrivenFrac 0.7 some requested pages have no subscription
// at the requesting server, so zero counts are checked too.
func TestShardsPassWorkloadSubCounts(t *testing.T) {
	for _, trace := range []workload.TraceName{workload.TraceNEWS, workload.TraceALTERNATIVE} {
		for _, frac := range []float64{1, 0.7} {
			t.Run(fmt.Sprintf("%s/frac=%g", trace, frac), func(t *testing.T) {
				cfg := workload.ScaledConfig(trace, 50)
				cfg.NotificationDrivenFrac = frac
				w, err := workload.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var recs []*recorder
				f := core.Factory{Name: "recorder", When: core.PlaceAtBoth, How: core.ValueFromBoth,
					New: func(core.Params) (core.Strategy, error) {
						// NewReplay builds one strategy per server, in
						// server order.
						r := &recorder{t: t, w: w, server: len(recs)}
						recs = append(recs, r)
						return r, nil
					}}
				if _, err := Run(w, f, DefaultOptions()); err != nil {
					t.Fatal(err)
				}
				if len(recs) != cfg.Servers {
					t.Fatalf("built %d strategies for %d servers", len(recs), cfg.Servers)
				}
				var pushes, requests, zero int
				for _, r := range recs {
					pushes += r.pushes
					requests += r.requests
					zero += r.zeroRequests
				}
				var routed int
				for _, p := range w.Publications {
					for _, n := range w.Subscriptions[p.Page] {
						if n > 0 {
							routed++
						}
					}
				}
				if pushes != routed || requests != len(w.Requests) {
					t.Errorf("strategies saw %d pushes and %d requests, want %d and %d", pushes, requests, routed, len(w.Requests))
				}
				if frac < 1 && zero == 0 {
					t.Error("no request arrived with zero subscriptions; the zero case went unchecked")
				}
			})
		}
	}
}
