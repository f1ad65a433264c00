package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/orb"
)

// setup_s is the median build time of setupRepeats deployments, made
// after setupWarm untimed ones. The first builds of a process run while
// its heap, the scheduler and the loopback stack warm up, and took up to
// twice as long. A build takes about a millisecond, and the host slows
// every build for a second or so at a time, by up to half; so a run times
// half its builds before its timed phase and half after it, and takes
// the median of them all.
const (
	setupWarm    = 20
	setupRepeats = 200
)

// setupClock times builds of a workload's deployment.
type setupClock[W any] struct {
	build    func(context.Context) (W, error)
	teardown func(W)
	host     *hostProbe
	times    []float64 // seconds
	rtts     []float64 // the host probe's, one before each timed build
}

// time builds warm untimed deployments and then n timed ones. Each is
// torn down, and its garbage collected, before the next is built, so
// every build starts from the same state of the process.
func (c *setupClock[W]) time(ctx context.Context, warm, n int) error {
	for i := 0; i < warm+n; i++ {
		runtime.GC()
		if i >= warm {
			if err := c.host.sample(&c.rtts); err != nil {
				return err
			}
		}
		start := time.Now()
		w, err := c.build(ctx)
		if err != nil {
			return err
		}
		if i >= warm {
			c.times = append(c.times, time.Since(start).Seconds())
		}
		c.teardown(w)
	}
	return nil
}

// start times the untimed builds and half the timed ones, and returns
// the deployment the run uses.
func (c *setupClock[W]) start(ctx context.Context) (W, error) {
	if err := c.time(ctx, setupWarm, setupRepeats/2); err != nil {
		var zero W
		return zero, err
	}
	return c.build(ctx)
}

// finish tears the run's deployment down, times the other half of the
// builds and returns setup_s, the host-scaled median of all timed builds.
func (c *setupClock[W]) finish(ctx context.Context, w W) (float64, error) {
	c.teardown(w)
	if err := c.time(ctx, 0, setupRepeats-setupRepeats/2); err != nil {
		return 0, err
	}
	return sliceQuantile(c.times, c.rtts, 0.5), nil
}

// solveSetup builds the solve deployment and places one manager
// (resolves, claims and prewarms the workers), which is the set-up a
// solve has before its first round.
func solveSetup(b *bench, host *hostProbe) *setupClock[*solveWorld] {
	return &setupClock[*solveWorld]{build: func(ctx context.Context) (*solveWorld, error) {
		w, err := newSolveWorld(ctx, b)
		if err != nil {
			return nil, err
		}
		if err := w.place(ctx); err != nil {
			w.close()
			return nil, err
		}
		return w, nil
	}, teardown: (*solveWorld).close, host: host}
}

// roundSeq numbers manager rounds across the run, for span parents.
var roundSeq atomic.Uint64

// roundTracker follows one Manager.Run through Config.AfterRound: it
// times the gaps between rounds and counts the manager ORB's requests
// from the end of round 1 on, where every request is a worker call or a
// checkpoint call.
type roundTracker struct {
	b      *bench
	mgr    *orb.ORB
	last   time.Time
	sent1  uint64 // RequestsSent at the end of round 1
	sentN  uint64 // RequestsSent at the end of the last round
	rounds int
	gaps   []float64 // seconds between consecutive round ends
}

func newRoundTracker(b *bench, mgr *orb.ORB) *roundTracker {
	b.setParent("round", roundSeq.Add(1))
	return &roundTracker{b: b, mgr: mgr}
}

func (rt *roundTracker) afterRound(round int) {
	now := time.Now()
	sent := rt.mgr.Stats().RequestsSent
	if round == 1 {
		rt.sent1 = sent
	} else {
		rt.gaps = append(rt.gaps, now.Sub(rt.last).Seconds())
		rt.b.pRound.observe(rt.last)
	}
	rt.last, rt.sentN, rt.rounds = now, sent, round
	rt.b.setParent("round", roundSeq.Add(1))
}

// requestsPerCall is the manager's requests per worker call over rounds
// 2..n: 1 for a plain stub, 1 plus the checkpoint round trips for a proxy.
func (rt *roundTracker) requestsPerCall() float64 {
	calls := float64(problemWorkers * (rt.rounds - 1))
	return ratio(float64(rt.sentN-rt.sent1), calls)
}

// runFor calls step until d has passed, ctx ends or step fails.
func runFor(ctx context.Context, d time.Duration, step func() error) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// place resolves, claims and prewarms one manager's workers, as
// Manager.Place does, and releases the claims again.
func (w *solveWorld) place(ctx context.Context) error {
	addrs := make([]string, 0, problemWorkers)
	for j := 0; j < problemWorkers; j++ {
		ref, err := w.names.c.Resolve(ctx, w.name)
		if err != nil {
			return fmt.Errorf("place worker %d: %w", j, err)
		}
		addrs = append(addrs, ref.Addr)
	}
	w.manager.Prewarm(ctx, addrs...)
	w.sel.releaseAll()
	return nil
}

// shedCounts are ORB counters that must stay 0 where no call fails.
type shedCounts struct{ shed, admission, retries uint64 }

func countShed(orbs []*orb.ORB) shedCounts {
	var c shedCounts
	for _, o := range orbs {
		s := o.Stats()
		c.shed += s.RequestsShed
		c.admission += s.AdmissionShed
		c.retries += s.RetriesAttempted
	}
	return c
}

func (c shedCounts) minus(d shedCounts) shedCounts {
	return shedCounts{c.shed - d.shed, c.admission - d.admission, c.retries - d.retries}
}

// orbs lists the deployment's long-lived ORBs.
func (w *solveWorld) orbs() []*orb.ORB {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := []*orb.ORB{w.namingORB, w.storeORB, w.manager, w.admin}
	for _, s := range w.workers {
		out = append(out, s.orb)
	}
	return out
}
