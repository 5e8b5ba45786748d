package broker

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pubsubcd/internal/broker/faultnet"
	"pubsubcd/internal/journal"
	"pubsubcd/internal/match"
	"pubsubcd/internal/telemetry"
)

// The crash-recovery chaos suite. Every test here follows the same
// contract: after a crash (simulated by dropping the journal's file
// handles without flushing), a reopened broker must hold
//
//	acked-before-crash ⊆ recovered ⊆ acked ∪ in-flight
//
// — nothing acknowledged is lost, and nothing appears that was never
// submitted. The suite runs under -race in CI (crash-recovery job).

func openDurable(t *testing.T, dir string, opts ...BrokerOption) *Broker {
	t.Helper()
	b, err := Open(append([]BrokerOption{
		WithDataDir(dir),
		WithFsyncPolicy(journal.FsyncAlways),
		WithSnapshotInterval(-1),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func dumpTopics(b *Broker) map[int64]string {
	subs, _ := b.engine.Dump()
	out := make(map[int64]string, len(subs))
	for _, s := range subs {
		out[s.ID] = s.Topics[0]
	}
	return out
}

func TestCrashRecoveryRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := openDurable(t, dir)
	ids := make([]int64, 0, 5)
	for i := 0; i < 5; i++ {
		id, err := b.Subscribe(match.Subscription{Topics: []string{fmt.Sprintf("t%d", i)}},
			NotifierFunc(func(Notification) {}))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := b.Unsubscribe(ids[1]); err != nil {
		t.Fatal(err)
	}
	b.crash()

	b2 := openDurable(t, dir)
	defer b2.Close()
	got := dumpTopics(b2)
	if len(got) != 4 {
		t.Fatalf("recovered %d subscriptions, want 4: %v", len(got), got)
	}
	for i, id := range ids {
		topic, ok := got[id]
		if i == 1 {
			if ok {
				t.Errorf("unsubscribed id %d resurrected", id)
			}
			continue
		}
		if !ok || topic != fmt.Sprintf("t%d", i) {
			t.Errorf("id %d recovered as %q ok=%v, want t%d", id, topic, ok, i)
		}
	}
	// IDs keep advancing: no reuse of any pre-crash ID, including the
	// unsubscribed one.
	id, err := b2.Subscribe(match.Subscription{Topics: []string{"fresh"}}, NotifierFunc(func(Notification) {}))
	if err != nil {
		t.Fatal(err)
	}
	if id <= ids[len(ids)-1] {
		t.Errorf("post-recovery id %d not above pre-crash max %d", id, ids[len(ids)-1])
	}
}

func TestCrashRecoveryMidPublishEquivalence(t *testing.T) {
	dir := t.TempDir()
	b := openDurable(t, dir)

	type sub struct {
		id    int64
		topic string
	}
	var (
		mu        sync.Mutex
		acked     []sub
		submitted = make(map[string]bool)
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				topic := fmt.Sprintf("w%d-t%d", w, i)
				mu.Lock()
				submitted[topic] = true
				mu.Unlock()
				id, err := b.Subscribe(match.Subscription{Topics: []string{topic}},
					NotifierFunc(func(Notification) {}))
				if err != nil {
					return // journal poisoned by the crash
				}
				mu.Lock()
				acked = append(acked, sub{id, topic})
				mu.Unlock()
			}
		}(w)
	}
	// Publisher keeps the matching/fan-out path busy so the crash lands
	// mid-publish, not in a quiet broker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = b.Publish(Content{
				ID:      fmt.Sprintf("page-%d", i),
				Version: 1,
				Topics:  []string{fmt.Sprintf("w%d-t%d", i%4, i)},
				Body:    []byte("x"),
			})
		}
	}()

	// Let the workload run, but don't crash before at least one
	// subscription has been acked — the fence would be vacuous.
	deadline := time.Now().Add(5 * time.Second)
	var fence int
	for {
		time.Sleep(50 * time.Millisecond)
		mu.Lock()
		fence = len(acked)
		mu.Unlock()
		if fence > 0 || time.Now().After(deadline) {
			break
		}
	}
	b.crash()
	close(stop)
	wg.Wait()

	mu.Lock()
	guaranteed := append([]sub(nil), acked[:fence]...)
	allSubmitted := submitted
	mu.Unlock()
	if fence == 0 {
		t.Fatal("no subscription was acked before the fence; workload too slow")
	}

	b2 := openDurable(t, dir)
	defer b2.Close()
	recovered := dumpTopics(b2)

	for _, s := range guaranteed {
		if topic, ok := recovered[s.id]; !ok || topic != s.topic {
			t.Errorf("acked subscription %d (%s) lost in recovery (got %q ok=%v)", s.id, s.topic, topic, ok)
		}
	}
	for id, topic := range recovered {
		if !allSubmitted[topic] {
			t.Errorf("recovered subscription %d (%s) was never submitted", id, topic)
		}
	}

	// Twin equivalence: an uncrashed broker restored from the same
	// subscription set must match a probe event identically.
	twin := New()
	subs, nextID := b2.engine.Dump()
	for _, s := range subs {
		if err := twin.engine.Restore(s); err != nil {
			t.Fatal(err)
		}
	}
	twin.engine.AdvanceNextID(nextID)
	topics := make([]string, 0, len(recovered))
	for _, topic := range recovered {
		topics = append(topics, topic)
	}
	probe := Content{ID: "probe", Version: 1, Topics: topics, Body: []byte("p")}
	got, err := b2.Publish(probe)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Publish(probe)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got != len(recovered) {
		t.Errorf("probe matched %d on recovered broker, %d on twin, want %d", got, want, len(recovered))
	}
}

func TestCrashRecoveryTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	b := openDurable(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := b.Subscribe(match.Subscription{Topics: []string{fmt.Sprintf("t%d", i)}},
			NotifierFunc(func(Notification) {})); err != nil {
			t.Fatal(err)
		}
	}
	b.crash()

	// A crash mid-append leaves a half-written frame at the tail: a
	// header promising 10 bytes with only 2 present.
	wal := filepath.Join(dir, "broker", "wal.log")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 10, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	b2, err := Open(
		WithDataDir(dir),
		WithFsyncPolicy(journal.FsyncAlways),
		WithSnapshotInterval(-1),
		WithBrokerTelemetry(reg),
	)
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	defer b2.Close()
	if got := len(dumpTopics(b2)); got != 3 {
		t.Errorf("recovered %d subscriptions, want 3", got)
	}
	if n := reg.Counter("journal.replay_truncations").Value(); n != 1 {
		t.Errorf("journal.replay_truncations = %d, want 1", n)
	}
	if reg.Histogram("journal.recovery_ns", telemetry.LatencyBuckets()).Count() == 0 {
		t.Error("recovery duration histogram empty")
	}
}

func TestCrashRecoveryFsyncFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	disk := faultnet.NewDisk(7)
	b := openDurable(t, dir, WithJournalFS(disk))
	id1, err := b.Subscribe(match.Subscription{Topics: []string{"safe"}}, NotifierFunc(func(Notification) {}))
	if err != nil {
		t.Fatal(err)
	}
	disk.FailSyncs(1, nil)
	if _, err := b.Subscribe(match.Subscription{Topics: []string{"lost"}},
		NotifierFunc(func(Notification) {})); err == nil {
		t.Fatal("subscribe with a failing fsync should error")
	}
	// The failure is sticky: durability cannot silently resume.
	if _, err := b.Subscribe(match.Subscription{Topics: []string{"after"}},
		NotifierFunc(func(Notification) {})); err == nil {
		t.Fatal("subscribe after a journal failure should keep erroring")
	}
	if got := b.Subscriptions(); got != 1 {
		t.Errorf("failed subscribes must unwind: registry has %d, want 1", got)
	}
	b.crash()

	// Recovery on a healthy disk: the acked subscription is there; the
	// failed ones may or may not have reached the file (their writes
	// preceded the failed fsync), but must never exceed the submitted
	// set.
	b2 := openDurable(t, dir)
	defer b2.Close()
	got := dumpTopics(b2)
	if topic, ok := got[id1]; !ok || topic != "safe" {
		t.Errorf("acked subscription lost: %v", got)
	}
	allowed := map[string]bool{"safe": true, "lost": true}
	for id, topic := range got {
		if !allowed[topic] {
			t.Errorf("phantom subscription %d (%s)", id, topic)
		}
	}
}

func TestCrashRecoveryTornWriteTruncates(t *testing.T) {
	dir := t.TempDir()
	disk := faultnet.NewDisk(11)
	b := openDurable(t, dir, WithJournalFS(disk))
	id1, err := b.Subscribe(match.Subscription{Topics: []string{"whole"}}, NotifierFunc(func(Notification) {}))
	if err != nil {
		t.Fatal(err)
	}
	// The next journal write persists only 5 bytes — not even a full
	// frame header — exactly what a crash mid-write leaves behind.
	disk.TearWriteAfter(1, 5)
	if _, err := b.Subscribe(match.Subscription{Topics: []string{"torn"}},
		NotifierFunc(func(Notification) {})); err == nil {
		t.Fatal("subscribe over a torn write should error")
	}
	b.crash()

	reg := telemetry.NewRegistry()
	b2, err := Open(
		WithDataDir(dir),
		WithFsyncPolicy(journal.FsyncAlways),
		WithSnapshotInterval(-1),
		WithBrokerTelemetry(reg),
	)
	if err != nil {
		t.Fatalf("open after torn write: %v", err)
	}
	defer b2.Close()
	got := dumpTopics(b2)
	if len(got) != 1 || got[id1] != "whole" {
		t.Errorf("recovered %v, want only the whole record", got)
	}
	if n := reg.Counter("journal.replay_truncations").Value(); n != 1 {
		t.Errorf("journal.replay_truncations = %d, want 1", n)
	}
}
