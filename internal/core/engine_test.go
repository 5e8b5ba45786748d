package core

import (
	"math"
	"math/rand"
	"testing"
)

func page(id int, size int64) PageMeta {
	return PageMeta{ID: id, Size: size, Cost: 1}
}

func mustStrategy(t *testing.T, f func(Params) (Strategy, error), p Params) Strategy {
	t.Helper()
	s, err := f(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFactoryValidation(t *testing.T) {
	for _, f := range Catalog() {
		t.Run(f.Name, func(t *testing.T) {
			if _, err := f.New(Params{Capacity: 0, Beta: 1}); err == nil {
				t.Error("zero capacity should error")
			}
			if _, err := f.New(Params{Capacity: 100, Beta: 1}); err != nil {
				t.Errorf("valid params rejected: %v", err)
			}
		})
	}
	// β validation applies to GD*-framework schemes.
	for _, name := range []string{"GD*", "SG1", "SG2", "DM", "DC-FP", "DC-AP", "DC-LAP"} {
		f, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, beta := range []float64{0, -1, math.NaN(), math.Inf(1)} {
			if _, err := f.New(Params{Capacity: 100, Beta: beta}); err == nil {
				t.Errorf("%s: beta %g should error", name, beta)
			}
		}
	}
}

func TestLookup(t *testing.T) {
	f, err := Lookup("SG2")
	if err != nil || f.Name != "SG2" {
		t.Fatalf("Lookup(SG2) = %+v, %v", f, err)
	}
	if _, err := Lookup("NOPE"); err == nil {
		t.Error("unknown strategy should error")
	}
}

func TestCatalogCoversPaperTable1(t *testing.T) {
	want := map[string]PlacementTime{
		"GD*": PlaceAtAccess, "SUB": PlaceAtPush,
		"SG1": PlaceAtBoth, "SG2": PlaceAtBoth, "SR": PlaceAtBoth,
		"DM": PlaceAtBoth, "DC-FP": PlaceAtBoth, "DC-AP": PlaceAtBoth, "DC-LAP": PlaceAtBoth,
	}
	got := make(map[string]PlacementTime)
	for _, f := range Catalog() {
		got[f.Name] = f.When
	}
	for name, when := range want {
		if got[name] != when {
			t.Errorf("%s: When=%v, want %v", name, got[name], when)
		}
	}
	// The Table 1 labels survive the typed-enum redesign.
	if PlaceAtBoth.String() != "access+push" || ValueFromBoth.String() != "access+subscription" {
		t.Errorf("enum labels changed: %v, %v", PlaceAtBoth, ValueFromBoth)
	}
	if PlaceAtAccess.String() != "access-time" || PlaceAtPush.String() != "push-time" {
		t.Errorf("enum labels changed: %v, %v", PlaceAtAccess, PlaceAtPush)
	}
	if ValueFromAccess.String() != "access" || ValueFromSubscription.String() != "subscription" {
		t.Errorf("enum labels changed: %v, %v", ValueFromAccess, ValueFromSubscription)
	}
}

func TestGDStarBasicHitMiss(t *testing.T) {
	s := mustStrategy(t, NewGDStar, Params{Capacity: 100, Beta: 2})
	hit, stored := s.Request(page(1, 40), 0, 0)
	if hit || !stored {
		t.Fatalf("first request: hit=%v stored=%v, want miss+stored", hit, stored)
	}
	hit, stored = s.Request(page(1, 40), 0, 0)
	if !hit || !stored {
		t.Fatalf("second request: hit=%v stored=%v, want hit", hit, stored)
	}
	if s.Used() != 40 || s.Len() != 1 {
		t.Errorf("used=%d len=%d", s.Used(), s.Len())
	}
}

func TestGDStarIgnoresPush(t *testing.T) {
	s := mustStrategy(t, NewGDStar, Params{Capacity: 100, Beta: 2})
	if stored := s.Push(page(1, 40), 0, 99); stored {
		t.Error("GD* is access-time only; push must not store")
	}
	if hit, _ := s.Request(page(1, 40), 0, 99); hit {
		t.Error("pushed page should not be a hit under GD*")
	}
}

func TestGDStarEvictsLowestValue(t *testing.T) {
	s := mustStrategy(t, NewGDStar, Params{Capacity: 100, Beta: 1})
	// Fill with two pages; re-request page 1 to raise its value.
	s.Request(page(1, 50), 0, 0)
	s.Request(page(2, 50), 0, 0)
	s.Request(page(1, 50), 0, 0) // refs=2 for page 1
	// Page 3 needs 50 bytes; page 2 (refs=1, inserted later but lower
	// frequency) should be the victim.
	s.Request(page(3, 50), 0, 0)
	if hit, _ := s.Request(page(1, 50), 0, 0); !hit {
		t.Error("frequently used page 1 was evicted")
	}
	if hit, _ := s.Request(page(2, 50), 0, 0); hit {
		t.Error("page 2 should have been the eviction victim")
	}
}

func TestGDStarInflationNeverDecreases(t *testing.T) {
	s := mustStrategy(t, NewGDStar, Params{Capacity: 100, Beta: 2})
	g, ok := s.(*engine)
	if !ok {
		t.Fatal("GD* should be an *engine")
	}
	prev := g.l
	for i := 0; i < 500; i++ {
		s.Request(page(i%37, int64(10+i%23)), 0, 0)
		if g.l < prev {
			t.Fatalf("L decreased from %g to %g at step %d", prev, g.l, i)
		}
		prev = g.l
	}
}

func TestGDStarTooLargePageNotStored(t *testing.T) {
	s := mustStrategy(t, NewGDStar, Params{Capacity: 100, Beta: 2})
	s.Request(page(1, 60), 0, 0)
	hit, stored := s.Request(page(2, 200), 0, 0)
	if hit || stored {
		t.Error("page larger than capacity must be forwarded, not stored")
	}
	if hit, _ := s.Request(page(1, 60), 0, 0); !hit {
		t.Error("resident page should survive an oversized request")
	}
}

func TestGDStarStaleVersionIsMiss(t *testing.T) {
	s := mustStrategy(t, NewGDStar, Params{Capacity: 100, Beta: 2})
	s.Request(page(1, 40), 0, 0)
	hit, stored := s.Request(page(1, 40), 1, 0)
	if hit {
		t.Error("request for newer version must miss")
	}
	if !stored {
		t.Error("refreshed page should stay resident")
	}
	if hit, _ := s.Request(page(1, 40), 1, 0); !hit {
		t.Error("refreshed version should now hit")
	}
	// Older-version requests still hit (cache holds newer content).
	if hit, _ := s.Request(page(1, 40), 0, 0); !hit {
		t.Error("older version request against newer content should hit")
	}
}

func TestSUBStoresOnPushOnly(t *testing.T) {
	s := mustStrategy(t, NewSUB, Params{Capacity: 100})
	if stored := s.Push(page(1, 40), 0, 5); !stored {
		t.Fatal("push with room should store")
	}
	if hit, _ := s.Request(page(1, 40), 0, 5); !hit {
		t.Error("pushed page should hit")
	}
	// Miss: SUB forwards without caching.
	hit, stored := s.Request(page(2, 40), 0, 5)
	if hit || stored {
		t.Errorf("SUB must not cache on miss: hit=%v stored=%v", hit, stored)
	}
	if hit, _ := s.Request(page(2, 40), 0, 5); hit {
		t.Error("page 2 must still miss")
	}
}

func TestSUBValueBasedReplacement(t *testing.T) {
	s := mustStrategy(t, NewSUB, Params{Capacity: 100})
	s.Push(page(1, 50), 0, 2)  // value 2/50 = 0.04
	s.Push(page(2, 50), 0, 10) // value 10/50 = 0.2
	// New page with 6 subs (value 0.12): candidates = {page 1}; fits.
	if stored := s.Push(page(3, 50), 0, 6); !stored {
		t.Fatal("page 3 should replace page 1")
	}
	if hit, _ := s.Request(page(1, 50), 0, 2); hit {
		t.Error("page 1 should have been evicted")
	}
	if hit, _ := s.Request(page(2, 50), 0, 10); !hit {
		t.Error("page 2 (higher value) should survive")
	}
	// A low-value page must NOT displace higher-value residents.
	if stored := s.Push(page(4, 60), 0, 1); stored {
		t.Error("low-value push should be rejected")
	}
}

func TestSUBRejectsWhenCandidatesTooSmall(t *testing.T) {
	s := mustStrategy(t, NewSUB, Params{Capacity: 100})
	s.Push(page(1, 30), 0, 1)  // value 1/30 ≈ 0.033
	s.Push(page(2, 70), 0, 20) // value 20/70 ≈ 0.29
	// New page: 60 bytes, 5 subs → value 5/60 ≈ 0.083. Candidate set =
	// {page 1} (30 bytes) + 0 free < 60 → reject, nothing evicted.
	if stored := s.Push(page(3, 60), 0, 5); stored {
		t.Fatal("push should fail: candidate bytes insufficient")
	}
	if hit, _ := s.Request(page(1, 30), 0, 1); !hit {
		t.Error("failed push must not evict page 1")
	}
}

func TestSG1CombinesSubsAndRefs(t *testing.T) {
	s := mustStrategy(t, NewSG1, Params{Capacity: 100, Beta: 2})
	if stored := s.Push(page(1, 40), 0, 3); !stored {
		t.Fatal("SG1 should store at push time")
	}
	hit, stored := s.Request(page(2, 40), 0, 0)
	if hit {
		t.Error("page 2 first request should miss")
	}
	if !stored {
		t.Error("SG1 should cache on miss when space allows")
	}
}

func TestSG2PushedThenRequestedOnce(t *testing.T) {
	s := mustStrategy(t, NewSG2, Params{Capacity: 100, Beta: 2})
	s.Push(page(1, 40), 0, 1)
	// One subscription, one request: future references exhausted; the
	// value contribution (s - a) collapses to 0.
	if hit, _ := s.Request(page(1, 40), 0, 1); !hit {
		t.Fatal("pushed page should hit")
	}
	// A fresh push with subscriptions should displace it easily.
	if stored := s.Push(page(2, 100), 0, 5); !stored {
		t.Error("exhausted page should be evictable by a subscribed push")
	}
}

func TestSRValueDecreasesWithReads(t *testing.T) {
	s := mustStrategy(t, NewSR, Params{Capacity: 100})
	s.Push(page(1, 50), 0, 2)
	s.Push(page(2, 50), 0, 2)
	// Read page 1 twice: s-a goes 2 -> 0.
	s.Request(page(1, 50), 0, 2)
	s.Request(page(1, 50), 0, 2)
	// New push with 1 sub (value 1*1/50=0.02): page 1 now has value 0,
	// page 2 has 2/50=0.04. Only page 1 is a candidate.
	if stored := s.Push(page(3, 50), 0, 1); !stored {
		t.Fatal("push should displace the exhausted page 1")
	}
	if hit, _ := s.Request(page(2, 50), 0, 2); !hit {
		t.Error("page 2 should survive")
	}
	if hit, _ := s.Request(page(1, 50), 0, 2); hit {
		t.Error("page 1 should have been evicted")
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	s := mustStrategy(t, NewLRU, Params{Capacity: 100})
	s.Request(page(1, 50), 0, 0)
	s.Request(page(2, 50), 0, 0)
	s.Request(page(1, 50), 0, 0) // 1 is now most recent
	s.Request(page(3, 50), 0, 0) // evicts 2
	if hit, _ := s.Request(page(1, 50), 0, 0); !hit {
		t.Error("recently used page 1 evicted")
	}
	if hit, _ := s.Request(page(2, 50), 0, 0); hit {
		t.Error("LRU victim should have been page 2")
	}
}

func TestGDSPrefersCostlyPages(t *testing.T) {
	s := mustStrategy(t, NewGDS, Params{Capacity: 100})
	cheap := PageMeta{ID: 1, Size: 50, Cost: 0.1}
	costly := PageMeta{ID: 2, Size: 50, Cost: 10}
	s.Request(cheap, 0, 0)
	s.Request(costly, 0, 0)
	s.Request(PageMeta{ID: 3, Size: 50, Cost: 1}, 0, 0)
	if hit, _ := s.Request(costly, 0, 0); !hit {
		t.Error("costly page should be retained by GDS")
	}
	if hit, _ := s.Request(cheap, 0, 0); hit {
		t.Error("cheap page should be the GDS victim")
	}
}

func TestLFUDAEvictsLowFrequency(t *testing.T) {
	s := mustStrategy(t, NewLFUDA, Params{Capacity: 100})
	for i := 0; i < 5; i++ {
		s.Request(page(1, 50), 0, 0)
	}
	s.Request(page(2, 50), 0, 0)
	s.Request(page(3, 50), 0, 0) // evicts 2 (freq 1 < freq 5)
	if hit, _ := s.Request(page(1, 50), 0, 0); !hit {
		t.Error("high-frequency page evicted")
	}
	if hit, _ := s.Request(page(2, 50), 0, 0); hit {
		t.Error("LFU-DA victim should have been page 2")
	}
}

func TestPushRefreshesResidentVersion(t *testing.T) {
	for _, name := range []string{"SUB", "SG1", "SG2", "SR"} {
		f, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := f.New(Params{Capacity: 100, Beta: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Push(page(1, 40), 0, 3) {
			t.Fatalf("%s: initial push failed", name)
		}
		if !s.Push(page(1, 40), 1, 3) {
			t.Fatalf("%s: version refresh push failed", name)
		}
		if hit, _ := s.Request(page(1, 40), 1, 3); !hit {
			t.Errorf("%s: refreshed version should hit", name)
		}
	}
}

func TestCapacityNeverExceededAcrossStrategies(t *testing.T) {
	// Invariant sweep: drive every strategy with a deterministic mixed
	// push/request stream and check Used() <= Capacity() throughout.
	for _, f := range Catalog() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			s, err := f.New(Params{Capacity: 500, Beta: 2})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				id := (i * 7) % 53
				size := int64(10 + (i*13)%90)
				subs := (i * 3) % 9
				version := i / 500
				if i%3 == 0 {
					s.Push(PageMeta{ID: id, Size: size, Cost: 1 + float64(id%5)}, version, subs)
				} else {
					s.Request(PageMeta{ID: id, Size: size, Cost: 1 + float64(id%5)}, version, subs)
				}
				if s.Used() > s.Capacity() {
					t.Fatalf("step %d: used %d exceeds capacity %d", i, s.Used(), s.Capacity())
				}
				if s.Used() < 0 {
					t.Fatalf("step %d: negative used %d", i, s.Used())
				}
			}
		})
	}
}

func TestResidencyConsistencyAcrossStrategies(t *testing.T) {
	// Invariant: a request immediately after stored=true for the same
	// version must hit.
	for _, f := range Catalog() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			s, err := f.New(Params{Capacity: 1000, Beta: 2})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				id := (i * 11) % 29
				size := int64(20 + (i*7)%50)
				m := PageMeta{ID: id, Size: size, Cost: 1}
				if s.Push(m, 0, 4) {
					if hit, _ := s.Request(m, 0, 4); !hit {
						t.Fatalf("stored push of page %d did not hit", id)
					}
				}
			}
		})
	}
}

// TestNegativePageIDNeverCached checks the PageMeta.ID contract's edge:
// a negative ID has no slot, so every scheme turns it away at push and
// at access time, leaves its cache untouched and does not panic.
func TestNegativePageIDNeverCached(t *testing.T) {
	for _, f := range Catalog() {
		// Resident pages the offers must not evict: one placed at access
		// time (the dual caches' AC) and one low-valued push (their PC).
		s := mustStrategy(t, f.New, Params{Capacity: 1000, Beta: 2})
		s.Request(page(1, 300), 0, 3)
		s.Push(page(2, 400), 0, 1)
		used, n := s.Used(), s.Len()
		for _, id := range []int{-1, -1 << 40} {
			for _, size := range []int64{250, 450, 600, 950} {
				neg := page(id, size)
				if s.Push(neg, 1, 100) {
					t.Errorf("%s: push of page %d (%d B) stored", f.Name, id, size)
				}
				for i := 0; i < 2; i++ {
					if hit, stored := s.Request(neg, 1, 100); hit || stored {
						t.Errorf("%s: request of page %d (%d B) = (%v, %v), want (false, false)", f.Name, id, size, hit, stored)
					}
				}
			}
		}
		if s.Used() != used || s.Len() != n {
			t.Errorf("%s: negative IDs moved the cache from %d pages/%d bytes to %d/%d",
				f.Name, n, used, s.Len(), s.Used())
		}
	}
	st, _ := NewStore(100)
	if err := st.Add(entry(-3, 10, 1)); err == nil || st.Len() != 0 {
		t.Errorf("Store.Add of page -3: err %v, len %d; want an error and an empty store", err, st.Len())
	}
}

// TestInvPowMatchesMathPow: every β with a math.Pow-free branch gives
// the bit pattern math.Pow(base, 1/β) gives, over log-uniform bases
// from 1e-300 to 1e300 (results that overflow to +Inf or fall below the
// normal range included) and 0, subnormal bases, the smallest normal
// and +Inf.
func TestInvPowMatchesMathPow(t *testing.T) {
	bases := []float64{0, math.SmallestNonzeroFloat64, 0x1p-1070, 0x1p-1023, 0x1p-1022, 1, math.MaxFloat64, math.Inf(1)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		bases = append(bases, math.Pow(10, -300+600*rng.Float64()))
	}
	for _, beta := range []float64{2, 1, 0.5, 0.25, 0.125, 0.0625} {
		for _, base := range bases {
			got, want := invPow(base, beta), math.Pow(base, 1/beta)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("invPow(%g, %g) = %g (%#x), math.Pow gives %g (%#x)", base, beta, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
