package broker

// Partition state transfer. A clustered broker runs one Broker per
// owned partition; when ownership moves (node join/leave), the old
// owner exports the partition's registry state through the same
// snapshot machinery the journal uses, ships it over the wire
// (Client.Handoff), and the new owner imports it before the ring
// version advances. Export, import and the journal's checkpoints share
// one snapshot encoder (checkpointLocked), so a handoff blob and an
// on-disk snapshot are the same bytes — a durable receiver checkpoints
// the imported state straight into its own journal directory.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"pubsubcd/internal/match"
)

// Durable reports whether the broker journals its state. The transport
// uses it to decide whether connection-held subscriptions survive a
// graceful shutdown.
func (b *Broker) Durable() bool { return b.durable() }

// ExportState serializes the subscription registry in the journal's
// snapshot encoding. On a durable broker the same blob is also written
// as a journal snapshot (truncating the log), so the exported state
// and the on-disk state cannot diverge: the handoff stream IS the
// checkpoint.
func (b *Broker) ExportState() ([]byte, error) {
	b.jmu.Lock()
	defer b.jmu.Unlock()
	blob, err := b.checkpointLocked()
	if err != nil {
		return nil, fmt.Errorf("broker: export state: %w", err)
	}
	return blob, nil
}

// ImportState merges an exported registry blob into this broker.
// Import is additive and replay-safe: subscriptions whose IDs already
// exist are skipped, the ID allocator only ever advances, and nothing
// is removed — so a retried handoff (or one that races live
// re-subscriptions from edge routers) converges instead of clobbering.
// Imported subscriptions have no notifiers; matching and proxy pushes
// work immediately, and notification delivery resumes when edge
// routers re-bind. On a durable broker the merged registry is
// checkpointed before ImportState returns.
func (b *Broker) ImportState(blob []byte) error {
	var snap brokerSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return fmt.Errorf("broker: decode imported state: %w", err)
	}
	b.jmu.Lock()
	for _, sub := range snap.Subs {
		if err := b.engine.Restore(sub); err != nil && !errors.Is(err, match.ErrDuplicateID) {
			b.jmu.Unlock()
			return fmt.Errorf("broker: import subscription %d: %w", sub.ID, err)
		}
	}
	b.engine.AdvanceNextID(snap.NextID)
	var jerr error
	if b.jnl != nil {
		_, jerr = b.checkpointLocked()
	}
	b.jmu.Unlock()
	if bt := b.telemetryHandles(); bt != nil {
		bt.liveSubs.Set(int64(b.engine.Len()))
	}
	if jerr != nil {
		return fmt.Errorf("broker: import checkpoint: %w", jerr)
	}
	return nil
}

// Pages snapshots the content store for a partition transfer, sorted
// by page ID. Bodies are included: unlike the registry, page content
// is not journaled, so the handoff stream is its only way to survive
// an ownership move.
func (b *Broker) Pages() []Content {
	b.mu.Lock()
	out := make([]Content, 0, len(b.store))
	for _, c := range b.store {
		out = append(out, c)
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ImportPages merges transferred content into the store, keeping the
// newest version of every page. No matching or notification runs —
// the pages were already announced when originally published.
func (b *Broker) ImportPages(pages []Content) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range pages {
		if c.ID == "" {
			continue
		}
		if prev, ok := b.store[c.ID]; ok && c.Version <= prev.Version {
			continue
		}
		b.store[c.ID] = c
	}
}
