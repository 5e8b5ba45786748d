package sim

import (
	"testing"

	"pubsubcd/internal/workload"
)

func TestPerServerHourlyMatricesReconcile(t *testing.T) {
	w := testWorkload(t, workload.TraceNEWS, 1)
	res := runStrategy(t, w, "DC-LAP", DefaultOptions())

	servers := w.Config.Servers
	hours := len(res.HourlyHits)
	if len(res.PerServerHourlyHits) != servers || len(res.PerServerHourlyRequests) != servers {
		t.Fatalf("matrix has %d/%d server rows, want %d",
			len(res.PerServerHourlyHits), len(res.PerServerHourlyRequests), servers)
	}
	for s := 0; s < servers; s++ {
		if len(res.PerServerHourlyHits[s]) != hours {
			t.Fatalf("server %d row has %d hours, want %d", s, len(res.PerServerHourlyHits[s]), hours)
		}
		var hits, reqs int64
		for h := 0; h < hours; h++ {
			if res.PerServerHourlyHits[s][h] > res.PerServerHourlyRequests[s][h] {
				t.Fatalf("server %d hour %d: hits exceed requests", s, h)
			}
			hits += res.PerServerHourlyHits[s][h]
			reqs += res.PerServerHourlyRequests[s][h]
		}
		if hits != res.PerServerHits[s] || reqs != res.PerServerRequests[s] {
			t.Errorf("server %d: matrix sums (%d, %d) != marginals (%d, %d)",
				s, hits, reqs, res.PerServerHits[s], res.PerServerRequests[s])
		}
	}
	for h := 0; h < hours; h++ {
		var hits, reqs int64
		for s := 0; s < servers; s++ {
			hits += res.PerServerHourlyHits[s][h]
			reqs += res.PerServerHourlyRequests[s][h]
		}
		if hits != res.HourlyHits[h] || reqs != res.HourlyRequests[h] {
			t.Errorf("hour %d: matrix sums (%d, %d) != hourly series (%d, %d)",
				h, hits, reqs, res.HourlyHits[h], res.HourlyRequests[h])
		}
	}
}
