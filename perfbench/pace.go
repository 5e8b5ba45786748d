package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil blocks the calling thread until t; it returns at once
// when t has passed.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// openLoop issues n ops from one generator thread, op i due at
// start + i×period, whatever the earlier ops took: an op that runs long
// makes the following ones late instead of delaying their schedule.
// It returns how late each op was sent.
//
// The generator runs on its own OS thread with 1 µs timer slack, so a
// nanosleep to the next due time oversleeps by microseconds; the Go
// runtime's timers wake about a millisecond late on a loaded two-core
// machine, which would swamp the latencies measured from the due time.
func openLoop(start time.Time, n int, period time.Duration, op func(i int, due, send time.Time)) *hist {
	late := newHist()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The thread stays locked when the goroutine exits, so the
		// runtime discards it with its timer slack instead of reusing it.
		runtime.LockOSThread()
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * period)
			sleepUntil(due)
			send := time.Now()
			late.add(send.Sub(due).Nanoseconds())
			op(i, due, send)
		}
	}()
	<-done
	return late
}
