package core

import (
	"testing"
	"unsafe"
)

// TestStrategyStructsFillCacheLines pins each strategy struct at a whole
// number of 64-byte cache lines. The allocator places objects of such a
// size class on line boundaries, so every instance's hot fields (seq,
// stats, metrics, the eviction report) sit in the same lines. The
// simulator interleaves ops over a hundred instances per shard: when
// the eviction report grew the structs past the 320-byte size class,
// instances straddled lines and sim_paper's CPU per event rose about
// 8 % on a 2-core Xeon; padding to 384 bytes brought it back. A field
// added to one of these structs resizes its padding.
func TestStrategyStructsFillCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the padding is sized for 64-bit platforms")
	}
	for name, size := range map[string]uintptr{
		"engine":    unsafe.Sizeof(engine{}),
		"dm":        unsafe.Sizeof(dm{}),
		"dualCache": unsafe.Sizeof(dualCache{}),
	} {
		if size%64 != 0 {
			t.Errorf("%s is %d bytes, not a whole number of 64-byte cache lines", name, size)
		}
	}
}
