package main

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pubsubcd/internal/broker"
)

func TestRunServesUntilStopped(t *testing.T) {
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	go func() {
		defer wg.Done()
		errc <- run([]string{"-addr", "127.0.0.1:39917"}, stop, devnull)
	}()

	// Wait for the server to accept, then exercise it over the wire.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var client *broker.Client
	deadline := time.Now().Add(5 * time.Second)
	for {
		client, err = broker.Dial(ctx, "127.0.0.1:39917")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := client.Publish(ctx, broker.Content{ID: "p", Topics: []string{"t"}, Body: []byte("x")}); err != nil {
		t.Error(err)
	}
	_ = client.Close()

	close(stop)
	wg.Wait()
	if err := <-errc; err != nil {
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

	stop := make(chan struct{})
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	const localAddr = "127.0.0.1:39919"
	go func() {
		defer wg.Done()
		errc <- run([]string{
			"-addr", localAddr,
			"-uplink", upServer.Addr(),
			"-uplink-topics", "news",
			"-backoff-initial", "5ms",
			"-backoff-max", "50ms",
		}, stop, devnull)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	notified := make(chan broker.Notification, 4)
	var client *broker.Client
	deadline := time.Now().Add(5 * time.Second)
	for {
		client, err = broker.Dial(ctx, localAddr, broker.WithNotify(func(n broker.Notification) { notified <- n }))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
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

	close(stop)
	wg.Wait()
	if err := <-errc; err != nil {
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

// startRun launches run in a goroutine and dials until the server
// accepts, returning the connected client and the run channels.
func startRun(t *testing.T, args []string) (*broker.Client, chan struct{}, chan error, *sync.WaitGroup) {
	t.Helper()
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = devnull.Close() })
	go func() {
		defer wg.Done()
		errc <- run(args, stop, devnull)
	}()
	addr := args[1] // args start with "-addr", addr
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		client, err := broker.Dial(ctx, addr)
		if err == nil {
			return client, stop, errc, &wg
		}
		if time.Now().After(deadline) {
			close(stop)
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunDurableStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const addr = "127.0.0.1:39921"
	args := []string{"-addr", addr, "-data-dir", dir, "-fsync", "always", "-snapshot-interval", "1m"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// First incarnation: subscribe, then shut down gracefully while the
	// client is still connected.
	client, stop, errc, wg := startRun(t, args)
	if _, err := client.Subscribe(ctx, 0, []string{"news"}, nil); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if err := <-errc; err != nil {
		t.Fatalf("first run exited with error: %v", err)
	}
	_ = client.Close()

	// Second incarnation on the same data dir: the subscription must be
	// back, so a publish matches it even though no client resubscribed.
	client2, stop2, errc2, wg2 := startRun(t, args)
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
	close(stop2)
	wg2.Wait()
	if err := <-errc2; err != nil {
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
