package main

import (
	"bufio"
	"context"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pubsubcd/internal/broker"
)

func TestRunServesUntilStopped(t *testing.T) {
	l, client := startRun(t, []string{"-addr", "127.0.0.1:0"})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := client.Publish(ctx, broker.Content{ID: "p", Topics: []string{"t"}, Body: []byte("x")}); err != nil {
		t.Error(err)
	}
	_ = client.Close()
	if err := l.shutdown(); err != nil {
		t.Fatalf("run returned error: %v", err)
	}
}

func TestRunWithUplinkBridgesRemotePublications(t *testing.T) {
	// Upstream broker the command will bridge into.
	upstream := broker.New()
	upServer, err := broker.NewServer(upstream, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer upServer.Close()

	l := launch(t, []string{
		"-addr", "127.0.0.1:0",
		"-uplink", upServer.Addr(),
		"-uplink-topics", "news",
		"-backoff-initial", "5ms",
		"-backoff-max", "50ms",
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	notified := make(chan broker.Notification, 4)
	client, err := broker.Dial(ctx, l.attr(t, "broker listening", "addr"), broker.WithNotify(func(n broker.Notification) { notified <- n }))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Subscribe(ctx, 1, []string{"news"}, nil); err != nil {
		t.Fatal(err)
	}

	// Publish upstream: the uplink must republish into the local broker,
	// which notifies our local subscriber.
	if _, err := upstream.Publish(broker.Content{ID: "story", Topics: []string{"news"}, Body: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-notified:
		if n.PageID != "story" {
			t.Errorf("notified page = %q, want story", n.PageID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("publication never crossed the uplink")
	}

	if err := l.shutdown(); err != nil {
		t.Fatalf("run returned error: %v", err)
	}
}

func TestRunUplinkRequiresInterests(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	if err := run([]string{"-addr", "127.0.0.1:0", "-uplink", "127.0.0.1:1"}, stop, os.Stdout); err == nil {
		t.Error("uplink without topics or keywords should error")
	}
}

func TestRunErrors(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	if err := run([]string{"-addr", "256.256.256.256:1"}, stop, os.Stdout); err == nil {
		t.Error("bad address should error")
	}
	if err := run([]string{"-badflag"}, stop, os.Stdout); err == nil {
		t.Error("bad flag should error")
	}
	// Cluster members build their own server and partition brokers, so
	// the standalone server's flags are refused rather than ignored.
	standaloneOnly := [][]string{
		{"-codecs", "json"},
		{"-max-frame", "1048576"},
		{"-idle-timeout", "1m"},
		{"-write-timeout", "1s"},
		{"-publish-slo", "10ms"},
	}
	for _, flagArgs := range standaloneOnly {
		args := append([]string{"-addr", "127.0.0.1:0", "-node-id", "n1", "-cluster-peers", "n1=127.0.0.1:0"}, flagArgs...)
		err := run(args, stop, os.Stdout)
		if err == nil || !strings.Contains(err.Error(), "usage: "+flagArgs[0]) {
			t.Errorf("%s with -cluster-peers: got %v, want a usage error naming it", flagArgs[0], err)
		}
	}
	var all []string
	for _, flagArgs := range standaloneOnly {
		all = append(all, flagArgs...)
	}
	if err := run(append([]string{"-addr", "127.0.0.1:0"}, all...), stop, os.Stdout); err != nil {
		t.Errorf("standalone broker should accept %v: %v", all, err)
	}

	// The cluster member's and the uplink's flags are refused outside
	// their mode, and accepted in it.
	clusterOnly := [][]string{
		{"-node-id", "n1"},
		{"-partitions", "4"},
		{"-cluster-heartbeat", "50ms"},
		{"-retire-on-shutdown=false"},
	}
	for _, flagArgs := range clusterOnly {
		err := run(append([]string{"-addr", "127.0.0.1:0"}, flagArgs...), stop, os.Stdout)
		name := strings.SplitN(flagArgs[0], "=", 2)[0]
		if err == nil || !strings.Contains(err.Error(), "usage: "+name+" requires -cluster-peers") {
			t.Errorf("%s without -cluster-peers: got %v, want a usage error naming it", name, err)
		}
	}
	uplinkOnly := [][]string{
		{"-uplink-topics", "news"},
		{"-uplink-keywords", "breaking"},
		{"-backoff-initial", "5ms"},
		{"-backoff-max", "50ms"},
		{"-heartbeat", "1s"},
		{"-heartbeat-timeout", "3s"},
		{"-retry-budget", "2"},
		{"-max-reconnects", "5"},
		{"-request-timeout", "1s"},
		{"-uplink-codec", "binary,json"},
	}
	for _, flagArgs := range uplinkOnly {
		err := run(append([]string{"-addr", "127.0.0.1:0"}, flagArgs...), stop, os.Stdout)
		if err == nil || !strings.Contains(err.Error(), "usage: "+flagArgs[0]+" requires -uplink") {
			t.Errorf("%s without -uplink: got %v, want a usage error naming it", flagArgs[0], err)
		}
	}
	args := []string{"-addr", "127.0.0.1:0", "-cluster-peers", "n1=127.0.0.1:0"}
	for _, flagArgs := range clusterOnly {
		args = append(args, flagArgs...)
	}
	if err := run(args, stop, os.Stdout); err != nil {
		t.Errorf("cluster member should accept %v: %v", args, err)
	}
	upstream := broker.New()
	defer upstream.Close()
	upServer, err := broker.NewServer(upstream, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer upServer.Close()
	args = []string{"-addr", "127.0.0.1:0", "-uplink", upServer.Addr()}
	for _, flagArgs := range uplinkOnly {
		args = append(args, flagArgs...)
	}
	if err := run(args, stop, os.Stdout); err != nil {
		t.Errorf("uplinked broker should accept %v: %v", args, err)
	}
}

// launched is a run of the command in a goroutine, its log on a pipe.
type launched struct {
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{} // closed when run returns
	err      error         // run's result, once done is closed
	mu       sync.Mutex
	log      []string // the log lines so far
}

// launch starts run(args), to be stopped by shutdown or at the end of
// the test. Its log is read as it is written, so the command never
// blocks on it.
func launch(t *testing.T, args []string) *launched {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	l := &launched{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		l.err = run(args, l.stop, w)
		_ = w.Close()
		close(l.done)
	}()
	t.Cleanup(func() { _ = l.shutdown() })
	go func() {
		defer r.Close()
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			l.mu.Lock()
			l.log = append(l.log, sc.Text())
			l.mu.Unlock()
		}
	}()
	return l
}

// attr waits for the log line whose message is msg and returns the
// value of its attribute key: the bound address of a listener started
// on port 0, for one.
func (l *launched) attr(t *testing.T, msg, key string) string {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		l.mu.Lock()
		for _, line := range l.log {
			if !strings.Contains(line, "msg=\""+msg+"\" ") {
				continue
			}
			for _, field := range strings.Fields(line) {
				if v, ok := strings.CutPrefix(field, key+"="); ok {
					l.mu.Unlock()
					return v
				}
			}
		}
		l.mu.Unlock()
		select {
		case <-l.done:
			t.Fatalf("run exited before logging %q: %v", msg, l.err)
		default:
		}
	}
	t.Fatalf("no %q log line with %s", msg, key)
	return ""
}

// shutdown stops the command and returns run's error.
func (l *launched) shutdown() error {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
	return l.err
}

// startRun launches the command and dials the address it logs.
func startRun(t *testing.T, args []string) (*launched, *broker.Client) {
	t.Helper()
	l := launch(t, args)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client, err := broker.Dial(ctx, l.attr(t, "broker listening", "addr"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return l, client
}

func TestRunDurableStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-data-dir", dir, "-fsync", "always", "-snapshot-interval", "1m"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// First incarnation: subscribe, then shut down gracefully while the
	// client is still connected.
	l, client := startRun(t, args)
	if _, err := client.Subscribe(ctx, 0, []string{"news"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.shutdown(); err != nil {
		t.Fatalf("first run exited with error: %v", err)
	}
	_ = client.Close()

	// Second incarnation on the same data dir: the subscription must be
	// back, so a publish matches it even though no client resubscribed.
	l2, client2 := startRun(t, args)
	matched, err := client2.Publish(ctx, broker.Content{ID: "story", Version: 1, Topics: []string{"news"}, Body: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if matched != 1 {
		t.Errorf("publish matched %d subscriptions after restart, want the recovered 1", matched)
	}
	// A fresh subscription coexists with the recovered one: a publish
	// touching both topics matches both.
	if _, err := client2.Subscribe(ctx, 0, []string{"other"}, nil); err != nil {
		t.Fatal(err)
	}
	matched, err = client2.Publish(ctx, broker.Content{ID: "story2", Version: 1, Topics: []string{"news", "other"}, Body: []byte("y")})
	if err != nil {
		t.Fatal(err)
	}
	if matched != 2 {
		t.Errorf("publish matched %d subscriptions, want recovered+fresh = 2", matched)
	}
	_ = client2.Close()
	if err := l2.shutdown(); err != nil {
		t.Fatalf("second run exited with error: %v", err)
	}
}

func TestRunRejectsInvalidDurabilityFlags(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	if err := run([]string{"-fsync", "sometimes"}, stop, os.Stdout); err == nil {
		t.Error("-fsync outside the enum should be a usage error")
	}
	// -fsync is validated even without -data-dir.
	if err := run([]string{"-addr", "127.0.0.1:0", "-fsync", "later"}, stop, os.Stdout); err == nil {
		t.Error("-fsync must be validated without -data-dir too")
	}
	if err := run([]string{"-data-dir", os.TempDir(), "-snapshot-interval", "0s"}, stop, os.Stdout); err == nil {
		t.Error("-snapshot-interval 0 with -data-dir should be a usage error")
	}
	if err := run([]string{"-data-dir", os.TempDir(), "-snapshot-interval", "-5s"}, stop, os.Stdout); err == nil {
		t.Error("negative -snapshot-interval with -data-dir should be a usage error")
	}
}
