package main

import (
	"context"
	"testing"
	"time"
)

// The exact counts the benchmark reports. Later changes cite them as
// counts, so they are asserted here rather than only printed.

func tracedRun(t *testing.T, wl workload, seed int64) map[string]metric {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	b := newBench(seed, 1)
	ms, err := wl(ctx, b, true)
	if err != nil {
		t.Fatal(err)
	}
	if f := b.failed.Load(); f != 0 {
		t.Fatalf("%d of %d operations failed; first: %v", f, b.attempted.Load(), b.firstErr)
	}
	if len(ms) != len(perLayerUnits) {
		t.Fatalf("traced run reported %d metrics, want all %d per-layer metrics", len(ms), len(perLayerUnits))
	}
	return ms
}

func want(t *testing.T, ms map[string]metric, name string, v float64) {
	t.Helper()
	if got := ms[name].Value; got != v {
		t.Errorf("%s = %v, want exactly %v", name, got, v)
	}
}

func TestTable1Counts(t *testing.T) {
	ms := tracedRun(t, runTable1, 3)
	// A proxied call is the solve plus _get_checkpoint plus the store put.
	want(t, ms, "ft.rtt_per_call", 3)
	want(t, ms, "ft.rtt_per_call_plain", 1)
	want(t, ms, "ft.ckpt_failures", 0)
	want(t, ms, "orb.admission_shed", 0)
	want(t, ms, "orb.requests_shed", 0)
	want(t, ms, "orb.retries", 0)
	// The checkpoint is the workers' warm-start state, whose size depends
	// on the decomposition alone.
	again := tracedRun(t, runTable1, 3)
	if a, b := ms["ft.ckpt_bytes_per_call"].Value, again["ft.ckpt_bytes_per_call"].Value; a == 0 || a != b {
		t.Errorf("ft.ckpt_bytes_per_call = %v and %v on two runs of one seed, want one nonzero value", a, b)
	}
}

func TestRecoveryCounts(t *testing.T) {
	ms := tracedRun(t, runRecovery, 3)
	kills := ms["bench.kills"].Value
	if kills == 0 {
		t.Fatal("no kills")
	}
	want(t, ms, "ft.recoveries", kills)
	want(t, ms, "ft.replays_per_kill", 1)
	want(t, ms, "naming.resolves_per_recovery", 1)
	want(t, ms, "orb.dials_per_kill", 1)
}

func TestResolveCounts(t *testing.T) {
	ms := tracedRun(t, runResolve, 3)
	want(t, ms, "winner.fallbacks", 0)
	want(t, ms, "orb.admission_shed", 0)
	want(t, ms, "orb.requests_shed", 0)
	want(t, ms, "orb.retries", 0)
}

func TestEndToEndMetricsNeverZero(t *testing.T) {
	for name, wl := range workloads {
		b := newBench(5, 1)
		ms, err := wl.run(context.Background(), b, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ms) != 5 {
			t.Errorf("%s reported %d end-to-end metrics, want 5", name, len(ms))
		}
		for m, v := range ms {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m, v.Value)
			}
		}
	}
}
