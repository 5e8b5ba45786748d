package main

// catalog lists the mutants, grouped by the gate they prove. A snippet
// is matched byte for byte, tabs included, and must occur exactly once
// in its file.
var catalog = []mutant{
	// The eviction report: each of the three sites that count
	// OpStats.Evictions also names the page, and the proxy acts on it.
	{
		name:    "core/engine-drops-report",
		file:    "internal/core/engine.go",
		snippet: "\t\tg.evicted.add(ev.ID)\n",
		replace: "",
		pkg:     "internal/core",
		run:     "^TestEvictedMatchesResidencyDiff$",
	},
	{
		name:    "core/dm-drops-report",
		file:    "internal/core/dm.go",
		snippet: "\td.evicted.add(e.ID)\n",
		replace: "",
		pkg:     "internal/core",
		run:     "^TestEvictedMatchesResidencyDiff$",
	},
	{
		name:    "core/dualcache-drops-report",
		file:    "internal/core/dualcache.go",
		snippet: "\t\td.evicted.add(ev.ID)\n",
		replace: "",
		pkg:     "internal/core",
		run:     "^TestEvictedMatchesResidencyDiff$",
	},
	{
		name:    "proxy/drops-before-serving-hit",
		file:    "internal/broker/proxy.go",
		snippet: "\t\thit, stored := p.strategy.Request(meta, pg.latest, pg.subs)\n",
		replace: "\t\thit, stored := p.strategy.Request(meta, pg.latest, pg.subs)\n\t\tp.dropEvicted()\n",
		pkg:     "internal/broker",
		run:     "^(TestProxyServesHitItsStrategyThenDrops|TestProxyReportKeepsOutcomes)$",
	},
	{
		name:    "proxy/ignores-report",
		file:    "internal/broker/proxy.go",
		snippet: "\tp.evictions, _ = strategy.(core.EvictionReporter)\n",
		replace: "",
		pkg:     "internal/broker",
		run:     "^(TestProxyNeverServesEvictedCopy|TestProxyHoldsWhatItsStrategyHolds|TestProxyMatchesMapModel)$",
	},

	{
		name:    "core/engine-unpadded",
		file:    "internal/core/engine.go",
		snippet: "\t_       [32]byte // to whole cache lines (TestStrategyStructsFillCacheLines)\n",
		replace: "",
		pkg:     "internal/core",
		run:     "^TestStrategyStructsFillCacheLines$",
	},

	// The proxy's per-page record against its map model.
	{
		name:    "proxy/evict-keeps-held",
		file:    "internal/broker/proxy.go",
		snippet: "\tpg.body, pg.held, pg.version = nil, false, 0\n",
		replace: "\tpg.body, pg.version = nil, 0\n",
		pkg:     "internal/broker",
		run:     "^TestProxyMatchesMapModel$",
	},
	{
		name:    "proxy/hit-without-version-test",
		file:    "internal/broker/proxy.go",
		snippet: "fresh := hit && pg.version >= pg.latest",
		replace: "fresh := hit",
		pkg:     "internal/broker",
		run:     "^TestProxyMatchesMapModel$",
	},
	{
		name:    "proxy/evicted-page-stays-on-refresh-branch",
		file:    "internal/broker/proxy.go",
		snippet: "\t\tp.pages[idx].evict()\n",
		replace: "\t\tp.pages[idx].body, p.pages[idx].version = nil, 0\n",
		pkg:     "internal/broker",
		run:     "^TestEvictedPageTakesTheMissBranch$",
	},
	{
		name:    "proxy/sums-matched-counts",
		file:    "internal/broker/proxy.go",
		snippet: "\tpg.subs = matched\n",
		replace: "\tpg.subs += matched\n",
		pkg:     "internal/broker",
		run:     "^TestProxyMatchesMapModel$",
	},
	{
		name:    "proxy/keeps-rejected-push",
		file:    "internal/broker/proxy.go",
		snippet: "\tif p.evictions == nil {\n\t\tpg.evict()\n\t}\n",
		replace: "",
		pkg:     "internal/broker",
		run:     "^TestProxyDropsBodyWhenRePushRejected$",
	},
	{
		name:    "proxy/reporter-drops-rejected-push",
		file:    "internal/broker/proxy.go",
		snippet: "\tif p.evictions == nil {\n\t\tpg.evict()\n\t}\n",
		replace: "\tpg.evict()\n",
		pkg:     "internal/broker",
		run:     "^TestProxyHoldsWhatItsStrategyHolds$",
	},

	// The connection writer's notify lane: run entries over one ID ring.
	{
		name:    "broker/chunk-ignores-free-room",
		file:    "internal/broker/batch.go",
		snippet: "room := (cw.maxPending - cw.ringBytes) / r.est",
		replace: "room := cw.maxPending / r.est",
		pkg:     "internal/broker",
		run:     "^TestEnqueueRunSlowConsumerProperty$",
	},
	{
		name:    "broker/gather-repeats-first-id",
		file:    "internal/broker/batch.go",
		snippet: "cw.appendIDsLocked(em.MoreSubIDs[:0], 1, run-1)",
		replace: "cw.appendIDsLocked(em.MoreSubIDs[:0], 0, run-1)",
		pkg:     "internal/broker",
		run:     "^TestNotifyLaneFramesAcrossWrapsAndSplits$",
	},

	// The match engine's aggregates, posting rule and verification, the
	// members' delivery targets, and the publish path's use of the
	// aggregates' multiplicity.
	{
		name:    "match/no-verify-single-keyword",
		file:    "internal/match/match.go",
		snippet: "\tif len(kw) == 0 {\n\t\treturn true\n\t}\n",
		replace: "\tif len(kw) <= 1 {\n\t\treturn true\n\t}\n",
		pkg:     "internal/match",
		run:     "^TestMatchEqualsBruteForce$",
	},
	{
		name:    "match/post-every-keyword",
		file:    "internal/match/match.go",
		snippet: "return e.byKeyword, kw[:1]",
		replace: "return e.byKeyword, kw",
		pkg:     "internal/match",
		run:     "^TestPostingListCensus$",
	},
	{
		name:    "match/unsubscribe-skips-removal",
		file:    "internal/match/match.go",
		snippet: "\t\tremovePosting(m, t, a)\n",
		replace: "\t\t_, _ = m, t\n",
		pkg:     "internal/match",
		run:     "^TestPostingListCensus$",
	},
	{
		name:    "match/duplicate-opens-aggregate",
		file:    "internal/match/match.go",
		snippet: "\ta := e.preds.find(h, sub.Proxy, sub.Topics, sub.Keywords)\n",
		replace: "\ta := (*aggregate[V])(nil)\n",
		pkg:     "internal/match",
		run:     "^TestPostingListCensus$",
	},
	{
		name:    "match/unsubscribe-drops-aggregate",
		file:    "internal/match/match.go",
		snippet: "\tif a.remove(id) {\n\t\treturn nil\n\t}\n",
		replace: "\ta.remove(id)\n",
		pkg:     "internal/match",
		run:     "^TestMatchEqualsBruteForce$",
	},
	{
		name:    "match/predicate-delete-leaves-hole",
		file:    "internal/match/match.go",
		snippet: "(j-home)&mask >= (j-i)&mask {",
		replace: "false && (j-home)&mask >= (j-i)&mask {",
		pkg:     "internal/match",
		run:     "^TestPostingListCensus$",
	},
	{
		name:    "match/add-overwrites-member-value",
		file:    "internal/match/match.go",
		snippet: "\tif m.ID < a.first.ID {\n",
		replace: "\ta.first.Value = m.Value\n\tif m.ID < a.first.ID {\n",
		pkg:     "internal/broker",
		run:     "^TestAggregateMembersKeepTheirTargets$",
	},
	{
		name:    "match/unsubscribe-keeps-member-value",
		file:    "internal/match/match.go",
		snippet: "\t\ta.first = more[0]\n",
		replace: "\t\ta.first.ID = more[0].ID\n",
		pkg:     "internal/broker",
		run:     "^TestAggregateMembersKeepTheirTargets$",
	},
	{
		name:    "match/groups-count-one",
		file:    "internal/match/match.go",
		snippet: "MatchGroup{Proxy: a.proxy, N: a.size()}",
		replace: "MatchGroup{Proxy: a.proxy, N: 1}",
		pkg:     "internal/match",
		run:     "^TestMatchEqualsBruteForce$",
	},
	{
		name:    "broker/pushes-count-aggregates",
		file:    "internal/broker/broker.go",
		snippet: "\t\t\thits[i] += g.N\n",
		replace: "\t\t\thits[i]++\n",
		pkg:     "internal/broker",
		run:     "^(TestProxyPushPassesPublishMatchedCount|TestPublishCountsAndNotifiesEveryMember)$",
	},

	// Cache sizing reads the requests, not the event view.
	{
		name:    "workload/capacities-build-view",
		file:    "internal/workload/workload.go",
		snippet: "return capacities(uniqueBytes(w), fraction), nil",
		replace: "return w.Events().CacheCapacities(fraction), nil",
		pkg:     "internal/workload",
		run:     "^TestCacheCapacitiesWithoutEventView$",
	},

	// The request stream's one order: the server breaks ties of time and
	// page (the horizon clamp makes them).
	{
		name:    "workload/request-order-drops-server",
		file:    "internal/workload/request.go",
		snippet: "\treturn cmp.Compare(a.Server, b.Server)\n",
		replace: "\treturn 0\n",
		pkg:     "internal/workload",
		run:     "^(TestRequestStreamShape|TestRequestOrderBreaksClampedTiesByServer)$",
	},

	// The compact event view: each event in its hour's window, each
	// publication at every subscribing server, and each shard reading
	// its own server's subscription counts from the workload's matrix.
	{
		name:    "workload/request-hour-shifted",
		file:    "internal/workload/events.go",
		snippet: "\t\tadvance(hourOf(r.Time, hours))\n",
		replace: "\t\tadvance(hourOf(r.Time, hours) + 1)\n",
		pkg:     "internal/workload",
		run:     "^TestEventView(MatchesSequentialReplay|HourBoundaries)$",
	},
	{
		name:    "workload/view-skips-last-subscriber",
		file:    "internal/workload/events.go",
		snippet: "\treturn l.servers[l.starts[page]:l.starts[page+1]]\n",
		replace: "\treturn l.servers[l.starts[page]:max(l.starts[page], l.starts[page+1]-1)]\n",
		pkg:     "internal/workload",
		run:     "^TestEventViewMatchesSequentialReplay$",
	},
	{
		name:    "sim/subs-column-of-next-server",
		file:    "internal/sim/shard.go",
		snippet: "return int(sh.subs[page][sh.server])",
		replace: "return int(sh.subs[page][(sh.server+1)%len(sh.subs[page])])",
		pkg:     "internal/sim",
		run:     "^TestShardsPassWorkloadSubCounts$",
	},

	// The registry is exact once the replay ends: Result publishes
	// what each shard tallied since its last hour boundary.
	{
		name:    "sim/result-skips-final-publish",
		file:    "internal/sim/shard.go",
		snippet: "\t\tif sh.pub != nil {\n\t\t\tsh.pub.publish(sh.tally, hours)\n\t\t}\n",
		replace: "",
		pkg:     "internal/sim",
		run:     "^(TestRunTelemetryMatchesResult|TestShardDriveTelemetryMatchesResult)$",
	},

	// The generator's range checks fail NaN: a NaN SQ would spin the
	// SQ' rejection sampler forever.
	{
		name:    "workload/validate-admits-nan-sq",
		file:    "internal/workload/config.go",
		snippet: "\tcase !(0 < c.SQ && c.SQ <= 1):\n",
		replace: "\tcase c.SQ <= 0 || c.SQ > 1:\n",
		pkg:     "internal/workload",
		run:     "^TestConfigValidate$",
	},

	// The trace reader's range checks: a misshapen subscription matrix,
	// a page class outside [0, 3] or a page size below 1 is an error,
	// not an index panic or a run of false hits in the replay.
	{
		name:    "workload/read-skips-shape-check",
		file:    "internal/workload/trace.go",
		snippet: "\tif err := w.CheckSubscriptions(); err != nil {\n\t\treturn err\n\t}\n",
		replace: "",
		pkg:     "internal/workload",
		run:     "^TestReadRejectsOutOfRangeReferences$",
	},
	{
		name:    "workload/read-skips-page-check",
		file:    "internal/workload/trace.go",
		snippet: "\t\tif p.Class < 0 || p.Class >= len(ageDistByClass) || p.Size < 1 {\n",
		replace: "\t\tif false {\n",
		pkg:     "internal/workload",
		run:     "^TestReadRejectsOutOfRangeReferences$",
	},

	// The wire bytes of a body: the JSON codec writes Body as base64
	// under "body", as the golden frames pin.
	{
		name:    "codec/json-drops-body",
		file:    "internal/broker/codec.go",
		snippet: "\tBody []byte `json:\"body,omitempty\"`\n",
		replace: "\tBody []byte `json:\"-\"`\n",
		pkg:     "internal/broker",
		run:     "^TestGoldenFrames$",
	},

	// The strategies' arithmetic.
	{
		name:    "core/invpow-no-subnormal-fallback",
		file:    "internal/core/engine.go",
		snippet: "\t\tif r >= 0x1p-1022 {\n\t\t\treturn r\n\t\t}\n",
		replace: "\t\treturn r\n",
		pkg:     "internal/core",
		run:     "^TestInvPowMatchesMathPow$",
	},

	// The broker command's mode checks.
	{
		name:    "cmd/broker-accepts-standalone-flags-in-cluster",
		file:    "cmd/broker/main.go",
		snippet: `firstSet("codecs", "max-frame", "idle-timeout", "write-timeout", "publish-slo"); name != ""`,
		replace: `firstSet("codecs", "max-frame", "idle-timeout", "write-timeout", "publish-slo"); name == "-"`,
		pkg:     "cmd/broker",
		run:     "^TestRunErrors$",
	},
}
