package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The admission walks are checked against the full scans they replaced,
// kept here as oracles: a map scan for Store.CanAdmit/BytesBelow and for
// DM's push gate, and sort-and-take for DC-AP's reclaim set.

// admissionValues is a small value alphabet, so random stores hold many
// equal values (ID ties in heap order) and thresholds land exactly on
// stored values.
var admissionValues = []float64{0, 0.25, 0.5, 1, 1, 2, 3.5, 8}

// thresholds returns every stored value, the values just around each,
// and ±Inf.
func thresholds() []float64 {
	vs := []float64{math.Inf(-1), math.Inf(1)}
	for _, v := range admissionValues {
		vs = append(vs, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
	}
	return vs
}

// randomStore builds a store of n random entries (fewer when it fills
// up; n < 0 fills it), then shuffles its heap with value changes and
// removals so the walks see layouts other than insertion order.
func randomStore(r *rand.Rand, capacity int64, n int) *Store {
	s, _ := NewStore(capacity)
	for id := 0; n < 0 || id < n; id++ {
		size := 1 + r.Int63n(capacity/4+1)
		if size > s.Free() {
			if size = s.Free(); size == 0 {
				break
			}
		}
		e := &Entry{ID: id, Size: size, Value: admissionValues[r.Intn(len(admissionValues))],
			LastAccessSeq: uint64(r.Intn(20))}
		if err := s.Add(e); err != nil {
			panic(err)
		}
	}
	for i := 0; i < s.Len()/3; i++ {
		if e, ok := s.Get(r.Intn(s.Len() + 1)); ok {
			if r.Intn(4) == 0 {
				s.Remove(e.ID)
			} else {
				e.Value = admissionValues[r.Intn(len(admissionValues))]
				s.Fix(e)
			}
		}
	}
	return s
}

// storeShapes yields random stores: empty, sparse, dense and full.
func storeShapes(r *rand.Rand) []*Store {
	capacity := 1 + r.Int63n(5000)
	return []*Store{
		randomStore(r, capacity, 0),
		randomStore(r, capacity, 1+r.Intn(6)),
		randomStore(r, capacity, 10+r.Intn(60)),
		randomStore(r, capacity, -1),
	}
}

func scanBytesBelow(s *Store, v float64) int64 {
	var total int64
	for _, e := range s.byID {
		if e.Value < v {
			total += e.Size
		}
	}
	return total
}

func scanCanAdmit(s *Store, size int64, v float64) bool {
	return size <= s.capacity && s.Free()+scanBytesBelow(s, v) >= size
}

// probeSizes are page sizes around the boundaries of a gate: the free
// space, free plus the candidate bytes, one either side, and the
// capacity.
func probeSizes(r *rand.Rand, free, below, capacity int64) []int64 {
	sizes := []int64{1, capacity, capacity + 1, 1 + r.Int63n(capacity+1)}
	for _, b := range []int64{free, free + below} {
		sizes = append(sizes, b-1, b, b+1)
	}
	return sizes
}

func TestStoreAdmissionWalkMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		for _, s := range storeShapes(r) {
			for _, v := range thresholds() {
				below := scanBytesBelow(s, v)
				if got := s.BytesBelow(v); got != below {
					t.Fatalf("round %d: BytesBelow(%g) = %d, scan %d (%d entries)", round, v, got, below, s.Len())
				}
				for _, size := range probeSizes(r, s.Free(), below, s.Capacity()) {
					if size < 1 {
						continue
					}
					if got, want := s.CanAdmit(size, v), scanCanAdmit(s, size, v); got != want {
						t.Fatalf("round %d: CanAdmit(%d, %g) = %v, scan %v (free %d, below %d)",
							round, size, v, got, want, s.Free(), below)
					}
				}
			}
		}
	}
}

// dmFrom builds a DM cache holding the store's entries, with each
// entry's Value as its subValue and an unrelated gdValue, so the two
// heaps disagree on order.
func dmFrom(t *testing.T, s *Store) *dm {
	t.Helper()
	st, err := NewDM(Params{Capacity: s.Capacity(), Beta: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := st.(*dm)
	for _, e := range s.byID {
		d.add(&dmEntry{Entry: *e, subValue: e.Value, gdValue: -e.Value})
	}
	return d
}

func scanDMAdmits(d *dm, size int64, v float64) bool {
	var below int64
	for _, x := range d.byID {
		if x.subValue < v {
			below += x.Size
		}
	}
	return d.free()+below >= size
}

func TestDMAdmissionWalkMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for round := 0; round < 300; round++ {
		for _, s := range storeShapes(r) {
			d := dmFrom(t, s)
			for _, v := range thresholds() {
				for _, size := range probeSizes(r, s.Free(), scanBytesBelow(s, v), s.Capacity()) {
					if size < 1 || size > d.capacity {
						continue
					}
					if got, want := d.subAdmits(size, v), scanDMAdmits(d, size, v); got != want {
						t.Fatalf("round %d: subAdmits(%d, %g) = %v, scan %v", round, size, v, got, want)
					}
				}
			}
		}
	}
}

// sortAndTake is the reclaim set as it was computed before the walk:
// every idle AC entry, sorted by (Value, ID), taken until need is met.
func sortAndTake(ac *Store, lastACRepl uint64, need int64) ([]*Entry, int64) {
	var candidates []*Entry
	var candBytes int64
	for _, x := range ac.byID {
		if x.LastAccessSeq < lastACRepl {
			candidates = append(candidates, x)
			candBytes += x.Size
		}
	}
	if candBytes < need {
		return nil, candBytes
	}
	sort.Slice(candidates, func(i, j int) bool { return entryLess(candidates[i], candidates[j]) })
	var chosen []*Entry
	var freed int64
	for _, c := range candidates {
		if freed >= need {
			break
		}
		chosen = append(chosen, c)
		freed += c.Size
	}
	return chosen, freed
}

func TestReclaimWalkMatchesSortAndTake(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for round := 0; round < 300; round++ {
		for _, s := range storeShapes(r) {
			d, err := newDualCache("DC-AP", Params{Capacity: 2 * s.Capacity(), Beta: 2}, true, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			d.ac = s
			for _, repl := range []uint64{0, 1, 10, 20} {
				d.lastACRepl = repl
				_, idle := sortAndTake(s, repl, math.MaxInt64)
				for _, need := range []int64{1, idle - 1, idle, idle + 1, 1 + r.Int63n(s.Capacity())} {
					if need < 1 {
						continue
					}
					want, wantFreed := sortAndTake(s, repl, need)
					got, freed := d.reclaimable(need)
					if (freed >= need) != (wantFreed >= need) {
						t.Fatalf("round %d repl %d need %d: walk freed %d, sort-and-take %d of %d idle",
							round, repl, need, freed, wantFreed, idle)
					}
					if freed < need {
						continue
					}
					if freed != wantFreed || len(got) != len(want) {
						t.Fatalf("round %d repl %d need %d: walk chose %d entries (%d B), sort-and-take %d (%d B)",
							round, repl, need, len(got), freed, len(want), wantFreed)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("round %d repl %d need %d: choice %d is page %d, want %d",
								round, repl, need, i, got[i].ID, want[i].ID)
						}
					}
				}
			}
		}
	}
}
