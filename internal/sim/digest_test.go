package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"pubsubcd/internal/core"
	"pubsubcd/internal/topology"
	"pubsubcd/internal/workload"
)

// catalogDigests are the SHA-256 digests (first 16 hex digits) of every
// catalog strategy's Result, marshalled as JSON, on the NEWS trace with
// seed 1 and the simulator CLI's fetch costs. Key: scale, capacity
// fraction and β. A change that moves any placement decision, counter or
// traffic tally of any scheme changes a digest, so a refactor of the
// strategy containers must leave all of them as they are.
var catalogDigests = map[string]map[string]string{
	"1/0.05/2": {
		"GD*":    "af1fe52c1d2862ee",
		"SUB":    "246e618f3cf3d3a9",
		"SG1":    "84a8d1e7a337977d",
		"SG2":    "85425e2eee5924f6",
		"SR":     "f66d4eabc4325670",
		"DM":     "ec15a684753c9097",
		"DC-FP":  "e1834ad4aa753a54",
		"DC-AP":  "2008cdd719cbd39e",
		"DC-LAP": "b8cb47ef94ec1671",
		"LRU":    "dd40d296b42fc872",
		"GDS":    "64bcf5b4085c4193",
		"LFU-DA": "ea09d93d9e262e2a",
	},
	"4/0.01/1": {
		"GD*":    "34ea68513751fe60",
		"SUB":    "57cc967640a8eb89",
		"SG1":    "17ff3b95656d9004",
		"SG2":    "998ed056046ebc89",
		"SR":     "a3b2ca63686e1b40",
		"DM":     "4d99d0c104410722",
		"DC-FP":  "5f73acfc82d68e4d",
		"DC-AP":  "392fba6e2fdeb1d8",
		"DC-LAP": "ff49425626457ce2",
		"LRU":    "3d46271a8e3ad655",
		"GDS":    "d053b4231b40b0ad",
		"LFU-DA": "eb1be0b7c26eea36",
	},
}

func TestCatalogResultDigests(t *testing.T) {
	for _, c := range []struct {
		scale    int
		capacity float64
		beta     float64
	}{
		{scale: 1, capacity: 0.05, beta: 2},
		{scale: 4, capacity: 0.01, beta: 1},
	} {
		key := fmt.Sprintf("%d/%g/%g", c.scale, c.capacity, c.beta)
		w, err := workload.Generate(workload.ScaledConfig(workload.TraceNEWS, c.scale))
		if err != nil {
			t.Fatal(err)
		}
		costs, err := topology.FetchCosts(w.Config.Servers, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range core.Catalog() {
			res, err := Run(w, f, Options{CapacityFraction: c.capacity, Beta: c.beta, FetchCosts: costs})
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got := hex.EncodeToString(sum[:8])
			if want := catalogDigests[key][f.Name]; got != want {
				t.Errorf("%s %s: Result digest %s, want %s", key, f.Name, got, want)
			}
		}
	}
}
