package workload

import (
	"testing"
	"unsafe"
)

// TestEventEntryIsEightBytes pins a stream entry at 8 bytes. At paper
// scale the event view holds about 1.2 million entries, so the entry
// size sets most of the simulator's live heap: 9.5 MB at 8 bytes,
// three times that if a float64 time or a subscription count padded
// the entry to 24. A per-event fact belongs in the hour index, or in
// the workload's subscription matrix if it is a count, instead.
func TestEventEntryIsEightBytes(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 8 {
		t.Errorf("workload.Event is %d bytes, want 8", size)
	}
}

// TestTraceRecordsAreSixteenBytes pins a request and a publication at
// 16 bytes: a float64 time and two int32 fields, the widths the event
// view stores a page and a version in. The paper-scale workload holds
// 195 000 requests and 30 147 publications, 1.7 MiB more at 24 bytes.
func TestTraceRecordsAreSixteenBytes(t *testing.T) {
	if size := unsafe.Sizeof(Request{}); size != 16 {
		t.Errorf("workload.Request is %d bytes, want 16", size)
	}
	if size := unsafe.Sizeof(Publication{}); size != 16 {
		t.Errorf("workload.Publication is %d bytes, want 16", size)
	}
}
