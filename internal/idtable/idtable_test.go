package idtable

import (
	"math/rand"
	"slices"
	"testing"
)

// TestIDTableMatchesMap drives random Set/Delete sequences — mostly
// ascending IDs as subscribe hands them out, some below the maximum,
// re-sets of dead IDs, deletes of unknown ones — against a map, and
// after every step checks Len, Get, the sort order and the tombstone
// bound, and looks up runs of the kept IDs ascending, shuffled, with
// duplicates, descending and mixed with unknown IDs through one
// cursor each.
func TestIDTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab Table[int64]
		ref := map[int64]int64{}
		next := int64(0)
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // the next ID
				next += 1 + int64(rng.Intn(3))
				v := rng.Int63()
				tab.Set(next, v)
				ref[next] = v
			case op < 5: // any ID up to the maximum: insert, overwrite or revive
				id := rng.Int63n(next + 1)
				v := rng.Int63()
				tab.Set(id, v)
				ref[id] = v
			default:
				id := rng.Int63n(next + 2)
				want, had := ref[id]
				if got, ok := tab.Delete(id); ok != had || got != want {
					t.Fatalf("seed %d step %d: Delete(%d) = %d, %v; want %d, %v", seed, step, id, got, ok, want, had)
				}
				delete(ref, id)
			}
			checkIDTable(t, seed, step, &tab, ref, rng, next)
		}
	}
}

func checkIDTable(t *testing.T, seed int64, step int, tab *Table[int64], ref map[int64]int64, rng *rand.Rand, maxID int64) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, tab.Len(), len(ref))
	}
	if !slices.IsSortedFunc(tab.ents, func(a, b idEntry[int64]) int { return int(a.id - b.id) }) {
		t.Fatalf("seed %d step %d: entries out of order", seed, step)
	}
	for i := 1; i < len(tab.ents); i++ {
		if tab.ents[i-1].id == tab.ents[i].id {
			t.Fatalf("seed %d step %d: ID %d stored twice", seed, step, tab.ents[i].id)
		}
	}
	if len(tab.ents) > 0 && 2*tab.dead >= len(tab.ents) {
		t.Fatalf("seed %d step %d: %d of %d entries dead, want compaction below half", seed, step, tab.dead, len(tab.ents))
	}
	for id := int64(0); id <= maxID+1; id++ {
		v, ok := tab.Get(id)
		want, wantOK := ref[id]
		if ok != wantOK || v != want {
			t.Fatalf("seed %d step %d: Get(%d) = %d, %v; want %d, %v", seed, step, id, v, ok, want, wantOK)
		}
	}
	keys := make([]int64, 0, len(ref))
	for id := range ref {
		keys = append(keys, id)
	}
	slices.Sort(keys)
	shuffled := slices.Clone(keys)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var dups []int64
	for _, id := range keys {
		dups = append(dups, id)
		if rng.Intn(3) == 0 {
			dups = append(dups, id, id)
		}
	}
	descending := slices.Clone(keys)
	slices.Reverse(descending)
	var mixed []int64
	for i := 0; i < 2*len(keys)+4; i++ {
		mixed = append(mixed, rng.Int63n(maxID+3)-1)
	}
	if rng.Intn(2) == 0 {
		slices.Sort(mixed)
	}
	for _, run := range [][]int64{keys, shuffled, dups, descending, mixed} {
		cur := tab.Cursor()
		for _, id := range run {
			v, ok := cur.Find(id)
			want, wantOK := ref[id]
			if ok != wantOK || v != want {
				t.Fatalf("seed %d step %d: run %v: Find(%d) = %d, %v; want %d, %v", seed, step, run, id, v, ok, want, wantOK)
			}
		}
	}
}

// TestIDTableDeleteDropsValue: a tombstone keeps no reference to its
// value, and compaction clears the slots it frees, so a deleted
// target's connection is collectable at once.
func TestIDTableDeleteDropsValue(t *testing.T) {
	var tab Table[*int]
	vals := make([]int, 8)
	for i := range vals {
		tab.Set(int64(i+1), &vals[i])
	}
	tab.Delete(3)
	if tab.ents[2].v != nil {
		t.Fatal("tombstone still references its value")
	}
	for id := int64(1); id <= 4; id++ {
		tab.Delete(id)
	}
	if len(tab.ents) != 4 || tab.dead != 0 {
		t.Fatalf("after deleting half: %d entries, %d dead; want 4 live", len(tab.ents), tab.dead)
	}
	for _, e := range tab.ents[len(tab.ents):cap(tab.ents)] {
		if e.v != nil {
			t.Fatal("compaction left a reference beyond the live entries")
		}
	}
}
