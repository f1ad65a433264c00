package main

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// killRounds are the manager rounds after which a recovery solve loses a
// worker. Every solve runs at least 22 rounds at table1ManagerIters, so
// each kill is followed by a round that recovers from it.
var killRounds = map[int]bool{5: true, 10: true, 15: true, 20: true}

// recoveryStats is what one recovery phase measured.
type recoveryStats struct {
	faulty, clean     []float64 // solve seconds with and without kills
	overhead          []float64 // percent, per seed
	cpu               float64   // process CPU seconds
	heapMB            float64
	heapPeakMB        float64
	recover           samples // from Shutdown returning to the replayed solve's end, in kill order
	resolvesPerKill   samples // naming resolves served per kill (as seconds-free counts)
	kills, recoveries uint64
	replays           uint64
	dials             uint64
	rtts              []float64 // the host probe's, one after each pair of solves
}

// runRecovery alternates a fault-free proxied solve with a solve of the
// same seed in which, after each of killRounds, a spare worker is bound and
// then the ORB of a worker the manager holds is shut down. The proxy of
// the dead worker unbinds it, re-resolves, reads the store, restores the
// checkpoint into the spare and replays the solve there.
func runRecovery(ctx context.Context, b *bench, traced bool) (map[string]metric, error) {
	host, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer host.close()
	clock := solveSetup(b, host)
	w, err := clock.start(ctx)
	if err != nil {
		return nil, err
	}
	defer w.close()

	var killSeq atomic.Uint64
	step := func(st *recoveryStats) func() error {
		return func() error {
			seed := b.rng.Int63n(1 << 30)
			start := time.Now()
			clean, _, err := w.solve(ctx, seed, table1ManagerIters, true, newRoundTracker(b, w.manager).afterRound)
			cleanS := time.Since(start).Seconds()
			b.op(err)
			if err != nil {
				return fmt.Errorf("recovery: fault-free solve: %w", err)
			}

			rt := newRoundTracker(b, w.manager)
			var killErr error
			var kills uint64
			var replayed atomic.Uint64
			dials0 := w.manager.Stats().ConnectionsDialed
			afterRound := func(round int) {
				rt.afterRound(round)
				if !killRounds[round] || killErr != nil {
					return
				}
				spare, err := w.addWorker(ctx)
				if err != nil {
					killErr = err
					return
				}
				held := w.sel.claimedRefs()
				victim := held[b.rng.Intn(len(held))]
				resolves0 := w.ns.Resolves()
				id := killSeq.Add(1)
				var t0 atomic.Int64 // UnixNano when the victim's Shutdown returned
				spare.timed.setOnSolve(func(end time.Time) {
					b.killing.Store(false)
					replayed.Add(1)
					killed := time.Unix(0, t0.Load())
					if st != nil {
						st.recover.add(end.Sub(killed))
						st.resolvesPerKill.addSeconds(float64(w.ns.Resolves() - resolves0))
					}
					b.tr.record("bench.kill", killed, end, "kill", id)
				})
				b.setParent("kill", id)
				b.killing.Store(true)
				w.kill(victim)
				t0.Store(time.Now().UnixNano())
				kills++
			}
			start = time.Now()
			res, m, err := w.solve(ctx, seed, table1ManagerIters, true, afterRound)
			faultyS := time.Since(start).Seconds()
			b.op(err)
			if err != nil {
				return fmt.Errorf("recovery: solve with kills: %w", err)
			}
			if killErr != nil {
				return fmt.Errorf("recovery: kill: %w", killErr)
			}
			ps := m.ProxyStats()
			// Oracles: recovery restores the exact state, so F equals the
			// fault-free run bitwise, and every kill is recovered once.
			var fErr, killsErr error
			if math.Float64bits(res.F) != math.Float64bits(clean.F) {
				fErr = fmt.Errorf("recovery seed %d: F %v != fault-free F %v", seed, res.F, clean.F)
			}
			if ps.Recoveries != kills || replayed.Load() != kills {
				killsErr = fmt.Errorf("recovery seed %d: %d recoveries and %d replays on a spare for %d kills",
					seed, ps.Recoveries, replayed.Load(), kills)
			}
			b.op(fErr)
			b.op(killsErr)
			if st != nil {
				st.clean = append(st.clean, cleanS)
				st.faulty = append(st.faulty, faultyS)
				st.overhead = append(st.overhead, 100*(faultyS-cleanS)/cleanS)
				st.kills += kills
				st.recoveries += ps.Recoveries
				st.replays += ps.Replays
				st.dials += w.manager.Stats().ConnectionsDialed - dials0
				return host.sample(&st.rtts)
			}
			return nil
		}
	}

	if err := runFor(ctx, 300*time.Millisecond, step(nil)); err != nil {
		return nil, err
	}
	b.attempted.Store(0)
	b.failed.Store(0)

	phase := func(d time.Duration, tracing bool) (*recoveryStats, error) {
		st := &recoveryStats{}
		b.resetProbes()
		b.tr.enabled.Store(tracing)
		heap := startHeapSampler()
		cpu0 := cpuTime()
		err := runFor(ctx, d, step(st))
		st.cpu = (cpuTime() - cpu0).Seconds()
		b.tr.enabled.Store(false)
		st.heapMB, st.heapPeakMB = heap.halt()
		return st, err
	}
	d := time.Duration(b.seconds * float64(time.Second))
	if !traced {
		st, err := phase(d, false)
		if err != nil {
			return nil, err
		}
		setup, err := clock.finish(ctx, w)
		if err != nil {
			return nil, err
		}
		rec := st.recover.snapshot()
		return e2e{
			setup:    setup,
			p50:      sliceQuantile(rec, st.rtts, 0.5),
			p75:      sliceQuantile(rec, st.rtts, 0.75),
			cpuPerOp: hostScale(st.cpu/float64(len(st.clean)+len(st.faulty)), st.rtts),
			heapMB:   st.heapMB,
		}.metrics(), nil
	}
	base, err := phase(d/2, false)
	if err != nil {
		return nil, err
	}
	st, err := phase(d/2, true)
	if err != nil {
		return nil, err
	}
	kills := float64(st.kills)
	return perLayer(b, map[string]float64{
		"solve_s":                      median(base.faulty),
		"recover_ms_p50":               1e3 * quantile(base.recover.snapshot(), 0.5),
		"recover_ms_p90":               1e3 * quantile(base.recover.snapshot(), 0.9),
		"heap_peak_mb":                 base.heapPeakMB,
		"ft.store_get_us_p50":          b.pStoreGet.us(0.5),
		"ft.restore_us_p50":            b.pRestore.us(0.5),
		"ft.replays_per_kill":          ratio(float64(st.replays), kills),
		"ft.recoveries":                float64(st.recoveries),
		"ft.recovery_overhead_pct":     median(st.overhead),
		"bench.kills":                  kills,
		"naming.resolve_us_p50":        b.pNamingResolve.us(0.5),
		"naming.unbind_us_p50":         b.pNamingUnbind.us(0.5),
		"naming.resolves_per_recovery": median(st.resolvesPerKill.snapshot()),
		"orb.dials_per_kill":           ratio(float64(st.dials), kills),
		"trace.overhead_pct":           traceOverhead(median(st.recover.snapshot()), median(base.recover.snapshot())),
	}), nil
}
