package core

import (
	"math"
	"math/rand"
	"testing"
)

func dcap(t *testing.T, s Strategy) *dualCache {
	t.Helper()
	d, ok := s.(*dualCache)
	if !ok {
		t.Fatalf("expected *dualCache, got %T", s)
	}
	return d
}

func TestDCFPPartitionIsFixed(t *testing.T) {
	s := mustStrategy(t, NewDCFP, Params{Capacity: 200, Beta: 2})
	d := dcap(t, s)
	if d.pc.Capacity() != 100 || d.ac.Capacity() != 100 {
		t.Fatalf("initial partition pc=%d ac=%d, want 100/100", d.pc.Capacity(), d.ac.Capacity())
	}
	// Drive traffic; the partition must never change for DC-FP.
	for i := 0; i < 500; i++ {
		s.Push(page(i%20, 30), 0, 1+i%5)
		s.Request(page(i%25, 30), 0, 1+i%5)
		if d.pc.Capacity() != 100 || d.ac.Capacity() != 100 {
			t.Fatalf("DC-FP partition moved at step %d", i)
		}
	}
}

func TestDCFPPushGoesToPC(t *testing.T) {
	s := mustStrategy(t, NewDCFP, Params{Capacity: 200, Beta: 2})
	d := dcap(t, s)
	if !s.Push(page(1, 50), 0, 3) {
		t.Fatal("push should store in PC")
	}
	if _, ok := d.pc.Get(1); !ok {
		t.Error("pushed page should be in PC")
	}
	if _, ok := d.ac.Get(1); ok {
		t.Error("pushed page should not be in AC")
	}
}

func TestDCFPFirstAccessMovesToAC(t *testing.T) {
	s := mustStrategy(t, NewDCFP, Params{Capacity: 200, Beta: 2})
	d := dcap(t, s)
	s.Push(page(1, 50), 0, 3)
	hit, stored := s.Request(page(1, 50), 0, 3)
	if !hit || !stored {
		t.Fatalf("PC page access: hit=%v stored=%v", hit, stored)
	}
	if _, ok := d.pc.Get(1); ok {
		t.Error("page should have left PC")
	}
	if _, ok := d.ac.Get(1); !ok {
		t.Error("page should now be in AC")
	}
}

func TestDCFPMoveTriggersACReplacement(t *testing.T) {
	s := mustStrategy(t, NewDCFP, Params{Capacity: 200, Beta: 2})
	d := dcap(t, s)
	// Fill AC via misses.
	s.Request(page(10, 60), 0, 0)
	s.Request(page(11, 40), 0, 0)
	if d.ac.Used() != 100 {
		t.Fatalf("AC used = %d, want 100", d.ac.Used())
	}
	// Push then access page 1: the move must evict from AC.
	s.Push(page(1, 80), 0, 3)
	s.Request(page(1, 80), 0, 3)
	if _, ok := d.ac.Get(1); !ok {
		t.Fatal("moved page should be in AC")
	}
	if d.ac.Used() > d.ac.Capacity() {
		t.Fatalf("AC overfull: %d > %d", d.ac.Used(), d.ac.Capacity())
	}
}

func TestDCFPMissUsesAC(t *testing.T) {
	s := mustStrategy(t, NewDCFP, Params{Capacity: 200, Beta: 2})
	d := dcap(t, s)
	hit, stored := s.Request(page(1, 50), 0, 0)
	if hit || !stored {
		t.Fatalf("miss should store in AC: hit=%v stored=%v", hit, stored)
	}
	if _, ok := d.ac.Get(1); !ok {
		t.Error("missed page should be cached in AC")
	}
	if _, ok := d.pc.Get(1); ok {
		t.Error("missed page must not enter PC")
	}
}

func TestDCAPLocatingRelabelsStorage(t *testing.T) {
	s := mustStrategy(t, NewDCAP, Params{Capacity: 200, Beta: 2})
	d := dcap(t, s)
	s.Push(page(1, 50), 0, 3)
	pcBefore, acBefore := d.pc.Capacity(), d.ac.Capacity()
	s.Request(page(1, 50), 0, 3)
	if d.pc.Capacity() != pcBefore-50 || d.ac.Capacity() != acBefore+50 {
		t.Errorf("capacities after relabel: pc=%d ac=%d, want %d/%d",
			d.pc.Capacity(), d.ac.Capacity(), pcBefore-50, acBefore+50)
	}
	if _, ok := d.ac.Get(1); !ok {
		t.Error("page should be AC-labeled after access")
	}
	if d.pc.Capacity()+d.ac.Capacity() != 200 {
		t.Error("total capacity must be conserved")
	}
}

func TestDCAPPlacingReclaimsIdleACStorage(t *testing.T) {
	s := mustStrategy(t, NewDCAP, Params{Capacity: 200, Beta: 2})
	d := dcap(t, s)
	// Shrink PC to 40 by pushing a page and accessing it (relabel).
	s.Push(page(1, 60), 0, 2)
	s.Request(page(1, 60), 0, 2) // pc cap 40, ac cap 160, page 1 in AC
	// Fill AC and force a replacement so lastACRepl advances; page 1 is
	// not referenced afterwards.
	s.Request(page(10, 100), 0, 0) // ac used 160
	s.Request(page(11, 40), 0, 0)  // triggers AC eviction
	if d.lastACRepl == 0 {
		t.Fatal("scenario should have triggered an AC replacement")
	}
	// Now a push too large for PC arrives; page 1 (idle since the AC
	// replacement) is reclaimable.
	if stored := s.Push(page(4, 90), 0, 9); !stored {
		t.Fatal("DC-AP should reclaim idle AC storage for the push")
	}
	if _, ok := d.pc.Get(4); !ok {
		t.Error("reclaimed push should live in PC")
	}
	if _, ok := d.ac.Get(1); ok {
		t.Error("idle page 1 should have been reclaimed from AC")
	}
	if d.pc.Capacity()+d.ac.Capacity() != 200 {
		t.Error("total capacity must be conserved after reclamation")
	}
}

func TestDCLAPBoundsRespected(t *testing.T) {
	s := mustStrategy(t, NewDCLAP, Params{Capacity: 400, Beta: 2})
	d := dcap(t, s)
	for i := 0; i < 2000; i++ {
		id := (i * 7) % 31
		size := int64(20 + (i*13)%60)
		switch i % 3 {
		case 0:
			s.Push(page(id, size), i/700, 1+(i%6))
		default:
			s.Request(page(id, size), i/700, 1+(i%6))
		}
		frac := d.PCFraction()
		if frac < DefaultDCLAPLower-1e-9 || frac > DefaultDCLAPUpper+1e-9 {
			t.Fatalf("step %d: PC fraction %g outside [%g, %g]", i, frac, DefaultDCLAPLower, DefaultDCLAPUpper)
		}
		if d.pc.Capacity()+d.ac.Capacity() != 400 {
			t.Fatalf("step %d: capacity not conserved", i)
		}
	}
}

func TestDCAPFractionUnbounded(t *testing.T) {
	// DC-AP may drive the PC fraction to 0 (locating) — verify it can
	// leave the LAP band.
	s := mustStrategy(t, NewDCAP, Params{Capacity: 200, Beta: 2})
	d := dcap(t, s)
	s.Push(page(1, 100), 0, 2)
	s.Request(page(1, 100), 0, 2)
	if d.PCFraction() != 0 {
		t.Errorf("DC-AP PC fraction = %g, want 0", d.PCFraction())
	}
}

func TestNewDCLAPBoundedValidation(t *testing.T) {
	if _, err := NewDCLAPBounded(Params{Capacity: 100, Beta: 2}, -0.1, 0.5); err == nil {
		t.Error("negative lower bound should error")
	}
	if _, err := NewDCLAPBounded(Params{Capacity: 100, Beta: 2}, 0.5, 1.1); err == nil {
		t.Error("upper bound above 1 should error")
	}
	if _, err := NewDCLAPBounded(Params{Capacity: 100, Beta: 2}, 0.8, 0.2); err == nil {
		t.Error("inverted bounds should error")
	}
	if _, err := NewDCLAPBounded(Params{Capacity: 100, Beta: 2}, 0.1, 0.9); err != nil {
		t.Errorf("valid bounds rejected: %v", err)
	}
}

func TestDualCacheCapacityConservation(t *testing.T) {
	for _, ctor := range []struct {
		name string
		f    func(Params) (Strategy, error)
	}{
		{"DC-FP", NewDCFP}, {"DC-AP", NewDCAP}, {"DC-LAP", NewDCLAP},
	} {
		ctor := ctor
		t.Run(ctor.name, func(t *testing.T) {
			s := mustStrategy(t, ctor.f, Params{Capacity: 777, Beta: 2})
			d := dcap(t, s)
			for i := 0; i < 5000; i++ {
				id := (i * 11) % 43
				size := int64(5 + (i*19)%120)
				if i%2 == 0 {
					s.Push(page(id, size), i/900, (i*3)%8)
				} else {
					s.Request(page(id, size), i/900, (i*3)%8)
				}
				if d.pc.Capacity()+d.ac.Capacity() != 777 {
					t.Fatalf("step %d: pc %d + ac %d != 777", i, d.pc.Capacity(), d.ac.Capacity())
				}
				if d.pc.Used() > d.pc.Capacity() || d.ac.Used() > d.ac.Capacity() {
					t.Fatalf("step %d: partition overflow pc %d/%d ac %d/%d",
						i, d.pc.Used(), d.pc.Capacity(), d.ac.Used(), d.ac.Capacity())
				}
				// A page can live in at most one partition.
				dup := 0
				d.pc.Each(func(e *Entry) bool {
					if _, ok := d.ac.Get(e.ID); ok {
						dup++
					}
					return true
				})
				if dup > 0 {
					t.Fatalf("step %d: %d pages in both partitions", i, dup)
				}
			}
		})
	}
}

func TestDualCacheStaleVersionMiss(t *testing.T) {
	s := mustStrategy(t, NewDCLAP, Params{Capacity: 200, Beta: 2})
	s.Push(page(1, 50), 0, 2)
	if hit, _ := s.Request(page(1, 50), 1, 2); hit {
		t.Error("newer version must miss against stale PC copy")
	}
	if hit, _ := s.Request(page(1, 50), 1, 2); !hit {
		t.Error("refreshed copy should now hit")
	}
}

func TestDualCacheOversizedPages(t *testing.T) {
	s := mustStrategy(t, NewDCFP, Params{Capacity: 100, Beta: 2})
	if stored := s.Push(page(1, 80), 0, 5); stored {
		t.Error("push larger than PC partition should fail for DC-FP")
	}
	if _, stored := s.Request(page(2, 80), 0, 0); stored {
		t.Error("request larger than AC partition should not store")
	}
	if _, stored := s.Request(page(3, 30), 0, 0); !stored {
		t.Error("fitting request should store")
	}
}

func TestDCLAPOutperformsNothingSanity(t *testing.T) {
	// Smoke: identical stream through GD* and DC-LAP; pushed-and-then-
	// requested pages must give DC-LAP at least GD*'s hits.
	gd := mustStrategy(t, NewGDStar, Params{Capacity: 500, Beta: 2})
	dl := mustStrategy(t, NewDCLAP, Params{Capacity: 500, Beta: 2})
	gdHits, dlHits := 0, 0
	for i := 0; i < 400; i++ {
		id := (i * 3) % 40
		m := page(id, 50)
		subs := 2
		gd.Push(m, 0, subs)
		dl.Push(m, 0, subs)
		if hit, _ := gd.Request(m, 0, subs); hit {
			gdHits++
		}
		if hit, _ := dl.Request(m, 0, subs); hit {
			dlHits++
		}
	}
	if dlHits <= gdHits {
		t.Errorf("DC-LAP hits %d should exceed GD* hits %d on a push-friendly stream", dlHits, gdHits)
	}
	if math.IsNaN(float64(dlHits)) {
		t.Fatal("unreachable")
	}
}

// TestDCLAPDroppedPageNotReportedStored pins the DC-FP fallback of
// DC-LAP's first access: a PC page larger than all of AC, which cannot
// be relabeled without breaking the lower bound, is dropped, and the
// request must say so.
func TestDCLAPDroppedPageNotReportedStored(t *testing.T) {
	s := mustStrategy(t, NewDCLAP, Params{Capacity: 10000, Beta: 2})
	d := dcap(t, s)
	s.Request(PageMeta{ID: 1, Size: 2500, Cost: 1}, 0, 0)
	s.Request(PageMeta{ID: 2, Size: 2500, Cost: 10}, 0, 0)
	s.Request(PageMeta{ID: 3, Size: 2500, Cost: 10}, 0, 0) // evicts page 1; page 2 is idle
	big := PageMeta{ID: 4, Size: 6000, Cost: 1}
	if !s.Push(big, 0, 1) {
		t.Fatal("push should reclaim page 2's storage and store the page")
	}
	if d.pc.Capacity() != 7500 || d.ac.Capacity() != 2500 {
		t.Fatalf("partition pc %d ac %d, want 7500/2500", d.pc.Capacity(), d.ac.Capacity())
	}
	before := d.OpStats()
	hit, stored := s.Request(big, 0, 1)
	if !hit {
		t.Fatal("first access of a pushed page must hit")
	}
	if stored {
		t.Fatal("page larger than AC reported stored after its first access")
	}
	if _, ok := d.pc.Get(big.ID); ok {
		t.Fatal("dropped page still in PC")
	}
	if _, ok := d.ac.Get(big.ID); ok {
		t.Fatal("dropped page in AC")
	}
	after := d.OpStats()
	if after.Evictions != before.Evictions+1 || after.EvictedBytes != before.EvictedBytes+big.Size {
		t.Errorf("drop not counted: evictions %d→%d, bytes %d→%d",
			before.Evictions, after.Evictions, before.EvictedBytes, after.EvictedBytes)
	}
}

// TestDualCacheStoredMeansResident checks the Strategy contract on random
// streams: after every Push and Request, stored is true exactly when the
// page is in PC or AC, and a page reported stored hits on the next
// request for that version.
func TestDualCacheStoredMeansResident(t *testing.T) {
	for _, ctor := range []struct {
		name string
		f    func(Params) (Strategy, error)
	}{
		{"DC-FP", NewDCFP}, {"DC-AP", NewDCAP}, {"DC-LAP", NewDCLAP},
	} {
		t.Run(ctor.name, func(t *testing.T) {
			for seed := int64(1); seed <= 200; seed++ {
				r := rand.New(rand.NewSource(seed))
				s := mustStrategy(t, ctor.f, Params{Capacity: 10000, Beta: 2})
				d := dcap(t, s)
				for i := 0; i < 400; i++ {
					id := r.Intn(40)
					meta := PageMeta{ID: id, Size: 1 + r.Int63n(7000), Cost: 1}
					version, subs := i/100, r.Intn(8)
					var stored bool
					if r.Intn(2) == 0 {
						stored = s.Push(meta, version, subs)
					} else {
						_, stored = s.Request(meta, version, subs)
					}
					checkResident(t, d, id, stored, "seed %d op %d", seed, i)
					if stored {
						hit, still := s.Request(meta, version, subs)
						if !hit {
							t.Fatalf("seed %d op %d: page reported stored misses", seed, i)
						}
						checkResident(t, d, id, still, "seed %d op %d re-request", seed, i)
					}
				}
			}
		})
	}
}

func checkResident(t *testing.T, d *dualCache, id int, stored bool, format string, args ...any) {
	t.Helper()
	_, inPC := d.pc.Get(id)
	_, inAC := d.ac.Get(id)
	if stored != (inPC || inAC) {
		t.Fatalf(format+": stored=%v but resident=%v", append(args, stored, inPC || inAC)...)
	}
}

// walkReclaimVerdict is DC-AP's reclaim decision as a plain walk: sum
// the idle AC pages best-first until they cover the shortfall, then
// check DC-LAP's upper bound. It changes nothing, and it is the
// reference reclaimFor's walk-free rejections must agree with.
func walkReclaimVerdict(d *dualCache, size int64) bool {
	need := size - d.pc.Free()
	if need <= 0 {
		return false
	}
	var freed int64
	d.ac.ascend(func(x *Entry) bool {
		if x.LastAccessSeq < d.lastACRepl {
			freed += x.Size
		}
		return freed < need
	})
	if freed < need {
		return false
	}
	return !(float64(d.pc.Capacity()+freed)/float64(d.capacity) > d.maxPC)
}

// idleACBytes is the brute-force complement of activeAC: the bytes of
// the AC pages unreferenced since the last AC replacement.
func idleACBytes(d *dualCache) int64 {
	var idle int64
	d.ac.Each(func(e *Entry) bool {
		if e.LastAccessSeq < d.lastACRepl {
			idle += e.Size
		}
		return true
	})
	return idle
}

// TestDCAPIdleBytesInvariant drives the adaptive dual caches with random
// streams and checks, after every op, that activeAC is the brute-force
// sum of the AC pages accessed since the last AC replacement, and, on
// every push that SUB turns down, that the stored verdict is the one the
// walk-only reclaim decision gives. The last configuration starts DC-LAP
// at its lower bound, so first accesses fall back to DC-FP moves.
func TestDCAPIdleBytesInvariant(t *testing.T) {
	var reclaimed, idleShort, bounded int
	for _, c := range []struct {
		name         string
		lower, upper float64
		fpMoves      bool
	}{
		{"DC-AP", 0, 1, false},
		{"DC-LAP", DefaultDCLAPLower, DefaultDCLAPUpper, false},
		{"DC-LAP-at-lower-bound", 0.5, DefaultDCLAPUpper, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			fpMoves := 0
			for seed := int64(1); seed <= 100; seed++ {
				r := rand.New(rand.NewSource(seed))
				d, err := newDualCache(c.name, Params{Capacity: 10000, Beta: 2}, true, c.lower, c.upper)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 400; i++ {
					meta := PageMeta{ID: r.Intn(60), Size: 1 + r.Int63n(3000), Cost: 0.5 + r.Float64()}
					version, subs := i/100, r.Intn(8)
					_, inPC := d.pc.Get(meta.ID)
					_, inAC := d.ac.Get(meta.ID)
					if r.Intn(2) == 0 {
						v := subValue(subs, meta.Cost, meta.Size)
						subRejects := !inPC && !inAC &&
							!(meta.Size <= d.pc.Capacity() && d.pc.CanAdmit(meta.Size, v))
						want := subRejects && walkReclaimVerdict(d, meta.Size)
						switch need := meta.Size - d.pc.Free(); {
						case want:
							reclaimed++
						case !subRejects || need <= 0:
						case idleACBytes(d) < need:
							idleShort++
						default:
							bounded++
						}
						stored := d.Push(meta, version, subs)
						if subRejects && stored != want {
							t.Fatalf("seed %d op %d: push of %d bytes stored=%v, walk-only reclaim says %v",
								seed, i, meta.Size, stored, want)
						}
					} else {
						pcBefore := d.pc.Capacity()
						d.Request(meta, version, subs)
						if inPC && d.pc.Capacity() == pcBefore {
							fpMoves++
						}
					}
					if got, want := d.activeAC, d.ac.Used()-idleACBytes(d); got != want {
						t.Fatalf("seed %d op %d: activeAC = %d, brute force %d", seed, i, got, want)
					}
				}
			}
			if c.fpMoves && fpMoves == 0 {
				t.Error("no first access fell back to a DC-FP move")
			}
		})
	}
	if reclaimed == 0 || idleShort == 0 || bounded == 0 {
		t.Errorf("streams missed a reclaim verdict: %d reclaimed, %d short of idle bytes, %d over the bound",
			reclaimed, idleShort, bounded)
	}
}
