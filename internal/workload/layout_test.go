package workload

import (
	"testing"
	"unsafe"
)

// TestEventEntryIsEightBytes pins a stream entry at 8 bytes. At paper
// scale the event view holds about 1.2 million entries, so the entry
// size sets most of the simulator's live heap: 9.5 MB at 8 bytes,
// three times that if a float64 time or a subscription count padded
// the entry to 24. A per-event fact belongs in the hour index or the
// subscription column instead.
func TestEventEntryIsEightBytes(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 8 {
		t.Errorf("workload.Event is %d bytes, want 8", size)
	}
}
