package broker

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pubsubcd/internal/journal"
	"pubsubcd/internal/match"
)

// goldenFrames are the body-carrying frames whose encodings are pinned
// in testdata/golden/<name>.<codec>: a publish with a nil, empty,
// short and all-byte-values body, a fetch response and a handoff.
func goldenFrames() map[string]Message {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	frames := map[string]Message{
		"fetch_response": {
			Type: msgResponse, Seq: 9, OK: true, ID: "page-1", Version: 3,
			Topics: []string{"news"}, Keywords: []string{"go"},
			Body: []byte("fetched body\x00\xff"),
		},
		"handoff": {
			Type: msgHandoff, Seq: 11, Part: 5, Ring: 42,
			Body: []byte(`{"nextId":3,"subs":[]}`),
		},
	}
	for name, body := range map[string][]byte{"nil": nil, "empty": {}, "hello": []byte("hello"), "all256": all} {
		frames["publish_"+name] = Message{
			Type: msgPublish, Seq: 7, ID: "page-1", Version: 3,
			Topics: []string{"news", "sport"}, Keywords: []string{"go"},
			Body: body, Part: 2,
		}
	}
	return frames
}

// TestGoldenFrames: both codecs encode the golden frames to the pinned
// bytes, and decode the pinned bytes back to the same body.
func TestGoldenFrames(t *testing.T) {
	for name, m := range goldenFrames() {
		for _, c := range []Codec{JSONCodec(), BinaryCodec()} {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+"."+c.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.AppendFrame(nil, &m)
			if err != nil {
				t.Fatalf("%s %s: encode: %v", name, c.Name(), err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %s:\n got %q\nwant %q", name, c.Name(), got, want)
			}
			payload, err := c.ReadFrame(bufio.NewReader(bytes.NewReader(want)), nil, DefaultMaxFrame)
			if err != nil {
				t.Fatalf("%s %s: read: %v", name, c.Name(), err)
			}
			var back Message
			if err := c.DecodeFrame(payload, &back); err != nil {
				t.Fatalf("%s %s: decode: %v", name, c.Name(), err)
			}
			if !bytes.Equal(back.Body, m.Body) {
				t.Errorf("%s %s: decoded body %q, want %q", name, c.Name(), back.Body, m.Body)
			}
		}
	}
}

// TestGoldenSnapshot: the registry snapshot of a broker holding three
// subscriptions is the pinned blob, whether exported for a handoff or
// checkpointed into a durable broker's journal.
func TestGoldenSnapshot(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "export_state.json"))
	if err != nil {
		t.Fatal(err)
	}
	subscribeThree := func(b *Broker) {
		t.Helper()
		for _, s := range []match.Subscription{
			{Proxy: 1, Topics: []string{"news"}},
			{Proxy: 2, Topics: []string{"sport", "news"}, Keywords: []string{"go", "rust"}},
			{Proxy: 3, Keywords: []string{"weather"}},
		} {
			if _, err := b.Subscribe(s, NotifierFunc(func(Notification) {})); err != nil {
				t.Fatal(err)
			}
		}
	}

	b := New()
	subscribeThree(b)
	got, err := b.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ExportState:\n got %s\nwant %s", got, want)
	}

	dir := t.TempDir()
	db, err := Open(WithDataDir(dir), WithSnapshotInterval(-1))
	if err != nil {
		t.Fatal(err)
	}
	subscribeThree(db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(filepath.Join(dir, "broker"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if snap, _ := j.Snapshot(); !bytes.Equal(snap, want) {
		t.Errorf("on-disk snapshot:\n got %s\nwant %s", snap, want)
	}
}
