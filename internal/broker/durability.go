package broker

// Durable broker state. With a data directory configured, the broker
// write-ahead-journals every subscribe/unsubscribe and periodically
// snapshots the subscription registry, so a restarted broker recovers
// its matching state with the same subscription IDs it had before the
// crash.
//
// Recovery replay is idempotent: a record may be reflected in both
// the snapshot and the log (a crash can interleave with
// snapshotting), so "already applied" outcomes are skipped, never
// errors.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"pubsubcd/internal/journal"
	"pubsubcd/internal/match"
	"pubsubcd/internal/telemetry"
)

// DefaultSnapshotInterval is how often durable state is snapshotted
// (and the journal truncated) when not configured explicitly.
const DefaultSnapshotInterval = time.Minute

// brokerConfig collects option state for Open.
type brokerConfig struct {
	dataDir          string
	fsync            journal.FsyncPolicy
	snapshotInterval time.Duration
	fs               journal.FS
	telemetry        *telemetry.Registry
	slo              time.Duration
}

// BrokerOption configures Open.
type BrokerOption func(*brokerConfig)

// WithDataDir makes the broker durable: subscription changes are
// journaled under dir and replayed on the next Open, so restarts keep
// the registry and its subscription IDs.
func WithDataDir(dir string) BrokerOption {
	return func(c *brokerConfig) { c.dataDir = dir }
}

// WithFsyncPolicy selects when journal appends reach stable storage:
// journal.FsyncAlways (group-committed, zero loss), FsyncInterval
// (bounded loss) or FsyncNone (OS decides). Ignored without a data
// dir.
func WithFsyncPolicy(p journal.FsyncPolicy) BrokerOption {
	return func(c *brokerConfig) { c.fsync = p }
}

// WithSnapshotInterval sets how often the registry is snapshotted and
// the journal truncated. 0 means DefaultSnapshotInterval; negative
// disables periodic snapshots (one is still written on Close).
func WithSnapshotInterval(d time.Duration) BrokerOption {
	return func(c *brokerConfig) { c.snapshotInterval = d }
}

// WithJournalFS overrides the journal's filesystem — the disk-fault
// harness (faultnet.Disk) uses this to inject torn writes, short
// writes and fsync errors.
func WithJournalFS(fs journal.FS) BrokerOption {
	return func(c *brokerConfig) { c.fs = fs }
}

// WithBrokerTelemetry attaches the metrics registry before recovery
// runs, so journal counters (journal.appends, journal.fsyncs,
// journal.replay_truncations, ...) and the journal.recovery_ns
// histogram cover the restart itself.
func WithBrokerTelemetry(reg *telemetry.Registry) BrokerOption {
	return func(c *brokerConfig) { c.telemetry = reg }
}

// WithPublishSLO sets the publish-to-placement latency budget; see
// SetPublishSLO.
func WithPublishSLO(budget time.Duration) BrokerOption {
	return func(c *brokerConfig) { c.slo = budget }
}

// brokerRecord is one journaled registry change.
type brokerRecord struct {
	Op         string   `json:"op"` // "sub" | "unsub"
	ID         int64    `json:"id"`
	Proxy      int      `json:"proxy,omitempty"`
	Subscriber string   `json:"subscriber,omitempty"`
	Topics     []string `json:"topics,omitempty"`
	Keywords   []string `json:"keywords,omitempty"`
}

// brokerSnapshot is the full registry state.
type brokerSnapshot struct {
	NextID int64                `json:"nextId"`
	Subs   []match.Subscription `json:"subscriptions"`
}

// Open returns a broker, durable when WithDataDir is set: existing
// state is recovered from the journal directory (tolerating a torn
// final record; rejecting mid-log corruption with an error matching
// journal.ErrCorrupt) before the broker accepts traffic. Recovered
// subscriptions keep their IDs but have no notifiers — matching and
// proxy pushes work immediately; live clients re-subscribe.
func Open(opts ...BrokerOption) (*Broker, error) {
	var cfg brokerConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	b := New()
	if cfg.telemetry != nil {
		b.EnableTelemetry(cfg.telemetry)
	}
	if cfg.slo > 0 {
		b.SetPublishSLO(cfg.slo)
	}
	if cfg.dataDir == "" {
		return b, nil
	}
	start := time.Now()
	j, err := journal.Open(filepath.Join(cfg.dataDir, "broker"), journal.Options{
		Fsync:     cfg.fsync,
		FS:        cfg.fs,
		Telemetry: cfg.telemetry,
	})
	if err != nil {
		return nil, fmt.Errorf("broker: open journal: %w", err)
	}
	if blob, ok := j.Snapshot(); ok {
		var snap brokerSnapshot
		if err := json.Unmarshal(blob, &snap); err != nil {
			j.Close()
			return nil, fmt.Errorf("broker: decode snapshot: %w", err)
		}
		for _, sub := range snap.Subs {
			if err := b.engine.Restore(sub); err != nil {
				j.Close()
				return nil, fmt.Errorf("broker: restore subscription %d: %w", sub.ID, err)
			}
		}
		b.engine.AdvanceNextID(snap.NextID)
	}
	if err := j.Replay(b.applyRecord); err != nil {
		j.Close()
		return nil, fmt.Errorf("broker: replay journal: %w", err)
	}
	b.jnl = j
	if bt := b.telemetryHandles(); bt != nil {
		bt.liveSubs.Set(int64(b.engine.Len()))
	}
	cfg.telemetry.Histogram("journal.recovery_ns", telemetry.LatencyBuckets()).
		Observe(time.Since(start).Nanoseconds())
	if cfg.snapshotInterval >= 0 {
		interval := cfg.snapshotInterval
		if interval == 0 {
			interval = DefaultSnapshotInterval
		}
		b.snapStop = make(chan struct{})
		b.snapDone = make(chan struct{})
		go b.snapshotLoop(interval, b.snapStop, b.snapDone)
	}
	return b, nil
}

// applyRecord replays one journal record into the engine.
func (b *Broker) applyRecord(rec []byte) error {
	var r brokerRecord
	if err := json.Unmarshal(rec, &r); err != nil {
		return fmt.Errorf("broker: decode journal record: %w", err)
	}
	switch r.Op {
	case "sub":
		err := b.engine.Restore(match.Subscription{
			ID:         r.ID,
			Proxy:      r.Proxy,
			Subscriber: r.Subscriber,
			Topics:     r.Topics,
			Keywords:   r.Keywords,
		})
		if err != nil && !errors.Is(err, match.ErrDuplicateID) {
			return fmt.Errorf("broker: replay subscribe %d: %w", r.ID, err)
		}
	case "unsub":
		if err := b.engine.Unsubscribe(r.ID); err != nil && !errors.Is(err, match.ErrNotFound) {
			return fmt.Errorf("broker: replay unsubscribe %d: %w", r.ID, err)
		}
	default:
		return fmt.Errorf("broker: unknown journal op %q", r.Op)
	}
	return nil
}

// journalSubscribe appends the subscribe record; called after the
// engine applied it (apply-before-append keeps snapshots a superset
// of the log).
func (b *Broker) journalSubscribe(ctx context.Context, sub match.Subscription) error {
	blob, err := json.Marshal(brokerRecord{
		Op:         "sub",
		ID:         sub.ID,
		Proxy:      sub.Proxy,
		Subscriber: sub.Subscriber,
		Topics:     sub.Topics,
		Keywords:   sub.Keywords,
	})
	if err != nil {
		return err
	}
	return b.jnl.AppendContext(ctx, blob)
}

// journalUnsubscribe appends the unsubscribe record.
func (b *Broker) journalUnsubscribe(id int64) error {
	blob, err := json.Marshal(brokerRecord{Op: "unsub", ID: id})
	if err != nil {
		return err
	}
	return b.jnl.Append(blob)
}

// durable reports whether the broker has a journal attached.
func (b *Broker) durable() bool { return b.jnl != nil }

// Healthy reports whether the broker's durable state is usable: nil
// for an in-memory broker, otherwise the journal's health (a sticky
// write failure or a closed journal makes a durable broker unready).
// Suitable as a /readyz check.
func (b *Broker) Healthy() error {
	if b.jnl == nil {
		return nil
	}
	return b.jnl.Healthy()
}

// Checkpoint snapshots the subscription registry and truncates the
// journal. No-op on a non-durable broker. Holding jmu across
// Dump+WriteSnapshot guarantees no record lands in the log between
// the dump and the truncation.
func (b *Broker) Checkpoint() error {
	if b.jnl == nil {
		return nil
	}
	b.jmu.Lock()
	defer b.jmu.Unlock()
	subs, nextID := b.engine.Dump()
	blob, err := json.Marshal(brokerSnapshot{NextID: nextID, Subs: subs})
	if err != nil {
		return err
	}
	return b.jnl.WriteSnapshot(blob)
}

// snapshotLoop checkpoints periodically until stopped.
func (b *Broker) snapshotLoop(interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_ = b.Checkpoint()
		}
	}
}

// stopSnapshotLoop stops the periodic checkpointer, once.
func (b *Broker) stopSnapshotLoop() {
	if b.snapStop == nil {
		return
	}
	b.snapStopOnce.Do(func() {
		close(b.snapStop)
		<-b.snapDone
	})
}

// Close flushes durable state: a final registry checkpoint, then the
// journal is synced and closed. Safe to call on a non-durable broker
// (no-op) and idempotent.
func (b *Broker) Close() error {
	if b.jnl == nil {
		return nil
	}
	b.closeOnce.Do(func() {
		b.stopSnapshotLoop()
		err := b.Checkpoint()
		if cerr := b.jnl.Close(); err == nil {
			err = cerr
		}
		b.closeErr = err
	})
	return b.closeErr
}

// crash simulates a process kill for the chaos suite: no final
// snapshot, no flush — the journal drops its file handles mid-air.
func (b *Broker) crash() {
	if b.jnl == nil {
		return
	}
	b.stopSnapshotLoop()
	b.jnl.Crash()
}
