package core

import (
	"testing"
	"unsafe"
)

// TestStrategyStructsFillCacheLines pins each strategy struct at a whole
// number of 64-byte cache lines. The allocator places objects of such a
// size class on line boundaries, so every instance's hot fields (seq,
// stats, the eviction report) sit in the same lines. The simulator
// interleaves ops over a hundred instances per shard: when the eviction
// report once grew the structs past a whole line, instances straddled
// lines and sim_paper's CPU per event rose about 8 % on a 2-core Xeon.
// engine and dualCache are padded to the next whole line, 320 bytes
// today; dm fills 256 bytes unpadded. A field added to or removed from
// one resizes its padding, or gives one to dm.
func TestStrategyStructsFillCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the padding is sized for 64-bit platforms")
	}
	for name, size := range map[string]uintptr{
		"engine":    unsafe.Sizeof(engine{}),
		"dm":        unsafe.Sizeof(dm{}),
		"dualCache": unsafe.Sizeof(dualCache{}),
	} {
		t.Logf("%s: %d bytes", name, size)
		if size%64 != 0 {
			t.Errorf("%s is %d bytes, not a whole number of 64-byte cache lines", name, size)
		}
	}
}
