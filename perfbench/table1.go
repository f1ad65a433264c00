package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"
)

// table1ManagerIters fixes the manager's Complex Box budget of a table1
// or recovery solve.
const table1ManagerIters = 10

// table1Stats is what one table1 phase measured.
type table1Stats struct {
	plain, proxied, overhead []float64 // seconds, seconds, percent
	rounds                   []float64
	rttProxied, rttPlain     []float64
	ckptBytesPerCall         []float64
	ckptFailures             uint64
	busy                     float64 // Σ worker solve seconds / (Σ proxied solve seconds × GOMAXPROCS)
	cpu                      float64 // process CPU seconds
	heapMB                   float64
	heapPeakMB               float64
	shed                     shedCounts
	rtts                     []float64 // the host probe's, one after each pair
}

// runTable1 alternates plain and proxied solves of the same seed, plain
// first on even pairs and proxied first on odd ones. Each proxied worker
// call is followed by a _get_checkpoint and a store put, serially in the
// manager's GetResponse loop: Table 1's per-call overhead.
func runTable1(ctx context.Context, b *bench, traced bool) (map[string]metric, error) {
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

	pair := 0
	step := func(st *table1Stats) func() error {
		return func() error {
			seed := b.rng.Int63n(1 << 30)
			var secs [2]float64
			var fs [2]float64
			for k := 0; k < 2; k++ {
				proxied := (k == 0) == (pair%2 == 1)
				idx := 0
				if proxied {
					idx = 1
				}
				rt := newRoundTracker(b, w.manager)
				busy0 := b.pSolve.s.sum()
				start := time.Now()
				res, m, err := w.solve(ctx, seed, table1ManagerIters, proxied, rt.afterRound)
				elapsed := time.Since(start).Seconds()
				b.op(err)
				if err != nil {
					return fmt.Errorf("table1 solve (proxied=%v): %w", proxied, err)
				}
				secs[idx], fs[idx] = elapsed, res.F
				if st == nil {
					continue
				}
				if proxied {
					st.proxied = append(st.proxied, elapsed)
					st.rounds = append(st.rounds, rt.gaps...)
					st.rttProxied = append(st.rttProxied, rt.requestsPerCall())
					ps := m.ProxyStats()
					st.ckptBytesPerCall = append(st.ckptBytesPerCall, ratio(float64(ps.CheckpointBytes), float64(ps.Calls)))
					st.ckptFailures += ps.CheckpointFailures
					st.busy += b.pSolve.s.sum() - busy0
				} else {
					st.plain = append(st.plain, elapsed)
					st.rttPlain = append(st.rttPlain, rt.requestsPerCall())
				}
			}
			pair++
			// Oracle: the proxy must not change the result.
			var fErr error
			if math.Float64bits(fs[0]) != math.Float64bits(fs[1]) {
				fErr = fmt.Errorf("table1 seed %d: proxied F %v != plain F %v", seed, fs[1], fs[0])
			}
			b.op(fErr)
			if st != nil {
				st.overhead = append(st.overhead, 100*(secs[1]-secs[0])/secs[0])
				return host.sample(&st.rtts)
			}
			return nil
		}
	}

	// Warm-up: connections, GC pacing and caches settle before timing.
	if err := runFor(ctx, 300*time.Millisecond, step(nil)); err != nil {
		return nil, err
	}
	b.attempted.Store(0)
	b.failed.Store(0)

	phase := func(d time.Duration, tracing bool) (*table1Stats, error) {
		st := &table1Stats{}
		b.resetProbes()
		b.tr.enabled.Store(tracing)
		heap := startHeapSampler()
		shed0 := countShed(w.orbs())
		cpu0 := cpuTime()
		err := runFor(ctx, d, step(st))
		st.cpu = (cpuTime() - cpu0).Seconds()
		b.tr.enabled.Store(false)
		st.shed = countShed(w.orbs()).minus(shed0)
		st.heapMB, st.heapPeakMB = heap.halt()
		st.busy = ratio(st.busy, sum(st.proxied)*float64(runtime.GOMAXPROCS(0)))
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
		return e2e{
			setup:    setup,
			p50:      sliceQuantile(st.proxied, st.rtts, 0.5),
			p75:      sliceQuantile(st.proxied, st.rtts, 0.75),
			cpuPerOp: hostScale(st.cpu/float64(len(st.proxied)+len(st.plain)), st.rtts),
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
	return perLayer(b, map[string]float64{
		"solve_s":                median(base.proxied),
		"ft_overhead_pct":        median(base.overhead),
		"heap_peak_mb":           base.heapPeakMB,
		"rosen.round_ms_p50":     1e3 * median(st.rounds),
		"rosen.round_ms_p99":     1e3 * quantile(st.rounds, 0.99),
		"opt.solve_us_p50":       b.pSolve.us(0.5),
		"opt.solve_busy_share":   st.busy,
		"ft.rtt_per_call":        median(st.rttProxied),
		"ft.rtt_per_call_plain":  median(st.rttPlain),
		"ft.ckpt_fetch_us_p50":   b.pCkptFetch.us(0.5),
		"ft.store_put_us_p50":    b.pStorePut.us(0.5),
		"ft.store_put_us_p99":    b.pStorePut.us(0.99),
		"ft.ckpt_bytes_per_call": median(st.ckptBytesPerCall),
		"ft.ckpt_failures":       float64(st.ckptFailures),
		"orb.admission_shed":     float64(st.shed.admission),
		"orb.requests_shed":      float64(st.shed.shed),
		"orb.retries":            float64(st.shed.retries),
		"trace.overhead_pct":     traceOverhead(median(st.proxied), median(base.proxied)),
	}), nil
}
