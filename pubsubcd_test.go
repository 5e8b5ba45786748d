package pubsubcd

import (
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	cfg := ScaledWorkloadConfig(TraceNEWS, 50)
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := LookupStrategy("GD*")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(w, base, DefaultSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.HitRatio() < 0 || res.HitRatio() > 1 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.TotalTraffic(AlwaysPush) != res.TotalTraffic(PushWhenNecessary) {
		t.Error("GD* traffic should be scheme-independent")
	}
}

func TestFacadeCatalogAndConstructors(t *testing.T) {
	if len(StrategyCatalog()) != 12 {
		t.Errorf("catalog has %d entries, want 12", len(StrategyCatalog()))
	}
	s, err := NewSG2(StrategyParams{Capacity: 1000, Beta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "SG2" {
		t.Errorf("name = %q", s.Name())
	}
}

func TestFacadeBroker(t *testing.T) {
	b := NewBroker()
	strat, err := NewDCLAP(StrategyParams{Capacity: 1 << 16, Beta: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProxy(1, b, strat, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := b.Subscribe(Subscription{Proxy: 1, Topics: []string{"t"}},
		NotifierFunc(func(Notification) {})); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(Content{ID: "x", Topics: []string{"t"}, Body: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	body, err := p.Request("x")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "b" {
		t.Errorf("body = %q", body)
	}
}

func TestFacadeClosedLoopAndLatency(t *testing.T) {
	w, err := GenerateWorkload(ScaledWorkloadConfig(TraceNEWS, 100))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DeriveClosedLoop(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Requests) == 0 {
		t.Fatal("closed-loop stream empty")
	}
	gd, err := LookupStrategy("GD*")
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, w.Config.Servers)
	for i := range costs {
		costs[i] = 1
	}
	opts := DefaultSimOptions()
	opts.FetchCosts = costs
	res, err := Simulate(cl, gd, opts)
	if err != nil {
		t.Fatal(err)
	}
	mrt, err := res.MeanResponseTime(DefaultLatencyModel(), costs)
	if err != nil {
		t.Fatal(err)
	}
	if mrt <= 0 {
		t.Errorf("mean response time %g", mrt)
	}
}

func TestFacadeOpStats(t *testing.T) {
	s, err := NewSG2(StrategyParams{Capacity: 1000, Beta: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp, ok := s.(StatsProvider)
	if !ok {
		t.Fatal("SG2 should provide OpStats")
	}
	s.Push(PageMeta{ID: 1, Size: 100, Cost: 1}, 0, 3)
	if st := sp.OpStats(); st.PushOffers != 1 || st.PushStores != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFacadeExperiments(t *testing.T) {
	h := NewExperimentHarness(ExperimentConfig{Scale: 100, Seed: 1, TopologySeed: 7})
	res, err := h.Run("SG2", TraceNEWS, 0.05, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.HitRatio() <= 0 || res.HitRatio() > 1 {
		t.Errorf("implausible SG2 cell: %d requests, hit ratio %g", res.Requests, res.HitRatio())
	}
}

func TestFacadeDurableBroker(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBroker(WithDataDir(dir), WithFsyncPolicy(FsyncAlways), WithSnapshotInterval(-1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(Subscription{Proxy: 1, Topics: []string{"t"}},
		NotifierFunc(func(Notification) {})); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := OpenBroker(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if n := b2.Subscriptions(); n != 1 {
		t.Fatalf("recovered %d subscriptions, want 1", n)
	}
	matched, err := b2.Publish(Content{ID: "x", Topics: []string{"t"}, Body: []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	if matched != 1 {
		t.Errorf("publish matched %d, want the recovered subscription", matched)
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Error("ParseFsyncPolicy should reject unknown policies")
	}
}
