package sim

// shardTally is one proxy shard's private accumulator for every
// accounting dimension of a run: hourly series, popularity-class
// breakdown and the cold/warm miss split. A shard calls exactly two
// methods — push and request — so the accounting rules live in one
// place; nothing here is shared, which is what lets shards execute on
// separate goroutines without synchronisation. After all shards finish,
// mergeInto folds the accumulators into the run's Result in fixed
// server order.
type shardTally struct {
	hits, requests         int64
	coldMisses, warmMisses int64
	classHits              [4]int64
	classRequests          [4]int64

	// Per-hour series; hourlyHits/hourlyRequests double as this shard's
	// row of the per-server hourly matrices.
	hourlyHits, hourlyRequests                  []int64
	pushedPagesAP, pushedPagesPWN, fetchedPages []int64
	pushedBytesAP, pushedBytesPWN, fetchedBytes []int64
}

func newShardTally(hours int) *shardTally {
	return &shardTally{
		hourlyHits:     make([]int64, hours),
		hourlyRequests: make([]int64, hours),
		pushedPagesAP:  make([]int64, hours),
		pushedPagesPWN: make([]int64, hours),
		fetchedPages:   make([]int64, hours),
		pushedBytesAP:  make([]int64, hours),
		pushedBytesPWN: make([]int64, hours),
		fetchedBytes:   make([]int64, hours),
	}
}

// push records one push offer of size bytes during hour. stored reports
// whether the proxy kept the page, which is what separates the
// Always-Pushing from the Pushing-When-Necessary traffic accounting
// (§5.6): AP pays for every offer, PWN only for stored ones. Pushes are
// charged to the publisher link, so there is no per-server dimension in
// the merged result — but each shard still tallies its own offers.
func (t *shardTally) push(hour int, size int64, stored bool) {
	t.pushedPagesAP[hour]++
	t.pushedBytesAP[hour] += size
	if stored {
		t.pushedPagesPWN[hour]++
		t.pushedBytesPWN[hour] += size
	}
}

// request records one user request for a page of the given popularity
// class and size during hour. hit reports a fresh local hit; first
// reports the first request of this (page, server) pair, which
// classifies a miss as cold (avoidable only by pushing) vs warm.
func (t *shardTally) request(hour, class int, size int64, hit, first bool) {
	t.requests++
	t.hourlyRequests[hour]++
	t.classRequests[class]++
	if hit {
		t.hits++
		t.hourlyHits[hour]++
		t.classHits[class]++
	} else {
		t.fetchedPages[hour]++
		t.fetchedBytes[hour] += size
		if first {
			t.coldMisses++
		} else {
			t.warmMisses++
		}
	}
}

// mergeInto folds this shard's accumulators into res as server's
// contribution. Replay.Result merges shards in ascending server order; every
// field is an integer sum or a per-server row, so the merged Result is
// bit-identical for any shard execution schedule.
func (t *shardTally) mergeInto(res *Result, server int) {
	res.Hits += t.hits
	res.Requests += t.requests
	res.ColdMisses += t.coldMisses
	res.WarmMisses += t.warmMisses
	for c := range t.classHits {
		res.ClassHits[c] += t.classHits[c]
		res.ClassRequests[c] += t.classRequests[c]
	}
	for h := range t.hourlyHits {
		res.HourlyHits[h] += t.hourlyHits[h]
		res.HourlyRequests[h] += t.hourlyRequests[h]
		res.PushedPagesAP[h] += t.pushedPagesAP[h]
		res.PushedPagesPWN[h] += t.pushedPagesPWN[h]
		res.FetchedPages[h] += t.fetchedPages[h]
		res.PushedBytesAP[h] += t.pushedBytesAP[h]
		res.PushedBytesPWN[h] += t.pushedBytesPWN[h]
		res.FetchedBytes[h] += t.fetchedBytes[h]
	}
	res.PerServerHits[server] = t.hits
	res.PerServerRequests[server] = t.requests
	// The shard's hourly series are exactly its row of the per-server
	// matrices; ownership transfers to the Result.
	res.PerServerHourlyHits[server] = t.hourlyHits
	res.PerServerHourlyRequests[server] = t.hourlyRequests
}
