package broker

import (
	"testing"
	"time"

	"pubsubcd/internal/telemetry"
)

func TestPublishSLOCounters(t *testing.T) {
	b := New()
	reg := telemetry.NewRegistry()
	b.EnableTelemetry(reg)

	// A generous budget: the in-memory publish must land inside it.
	b.SetPublishSLO(time.Minute)
	if _, err := b.Publish(Content{ID: "fast", Topics: []string{"t"}}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["broker.slo.publish_to_placement.hit"] != 1 {
		t.Errorf("hit counter = %d, want 1", snap.Counters["broker.slo.publish_to_placement.hit"])
	}
	if snap.Counters["broker.slo.publish_to_placement.miss"] != 0 {
		t.Errorf("miss counter = %d, want 0", snap.Counters["broker.slo.publish_to_placement.miss"])
	}

	// 1ns cannot be met by any real publish.
	b.SetPublishSLO(time.Nanosecond)
	if _, err := b.Publish(Content{ID: "slow", Topics: []string{"t"}}); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if snap.Counters["broker.slo.publish_to_placement.miss"] != 1 {
		t.Errorf("miss counter = %d, want 1", snap.Counters["broker.slo.publish_to_placement.miss"])
	}
}

func TestPublishSLODefaultAndReset(t *testing.T) {
	b := New()
	if got := b.publishSLO(); got != DefaultPublishSLO {
		t.Errorf("default budget = %v, want %v", got, DefaultPublishSLO)
	}
	b.SetPublishSLO(10 * time.Millisecond)
	if got := b.publishSLO(); got != 10*time.Millisecond {
		t.Errorf("budget = %v", got)
	}
	b.SetPublishSLO(0) // non-positive restores the default
	if got := b.publishSLO(); got != DefaultPublishSLO {
		t.Errorf("reset budget = %v, want %v", got, DefaultPublishSLO)
	}
}

func TestOpenWithPublishSLO(t *testing.T) {
	b, err := Open(WithPublishSLO(5 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.publishSLO(); got != 5*time.Millisecond {
		t.Errorf("Open(WithPublishSLO) budget = %v", got)
	}
}
