package main

// The end-to-end metrics every workload reports from an untraced run.
// Each workload has one operation a user waits for (NOTES.md):
//
//	table1    one proxied Manager.Run (a solve)
//	recovery  one recovery, from the kill to the replayed solve's end
//	resolve   one Winner-ranked resolve, from its due time
type e2e struct {
	setup    float64 // seconds, sliceQuantile of setupRepeats deployments at 0.5
	p50      float64 // seconds, sliceQuantile of the operations at 0.5
	p75      float64 // seconds, sliceQuantile of the operations at 0.75
	cpuPerOp float64 // seconds of process CPU per operation, host-scaled
	heapMB   float64
}

func (e e2e) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":          {e.setup, "s"},
		"latency_ms_p50":   {1e3 * e.p50, "ms"},
		"latency_ms_p75":   {1e3 * e.p75, "ms"},
		"cpu_ms_per_op":    {1e3 * e.cpuPerOp, "ms"},
		"heap_live_mb_p90": {e.heapMB, "MiB"},
	}
}

// perLayerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer its workload does not reach reads 0.
var perLayerUnits = map[string]string{
	"solve_s":                              "s",
	"ft_overhead_pct":                      "%",
	"recover_ms_p50":                       "ms",
	"recover_ms_p90":                       "ms",
	"resolve_ms_p50":                       "ms",
	"resolve_ms_p99":                       "ms",
	"write_ms_p50":                         "ms",
	"write_ms_p99":                         "ms",
	"resolve_max_rps":                      "1/s",
	"error_ratio":                          "ratio",
	"heap_peak_mb":                         "MiB",
	"rosen.round_ms_p50":                   "ms",
	"rosen.round_ms_p99":                   "ms",
	"opt.solve_us_p50":                     "us",
	"opt.solve_busy_share":                 "ratio",
	"ft.rtt_per_call":                      "count",
	"ft.rtt_per_call_plain":                "count",
	"ft.ckpt_fetch_us_p50":                 "us",
	"ft.store_put_us_p50":                  "us",
	"ft.store_put_us_p99":                  "us",
	"ft.ckpt_bytes_per_call":               "B",
	"ft.ckpt_failures":                     "count",
	"ft.recovery_overhead_pct":             "%",
	"ft.store_get_us_p50":                  "us",
	"ft.restore_us_p50":                    "us",
	"ft.replays_per_kill":                  "count",
	"ft.recoveries":                        "count",
	"bench.kills":                          "count",
	"naming.resolve_us_p50":                "us",
	"naming.unbind_us_p50":                 "us",
	"naming.resolves_per_recovery":         "count",
	"naming.dispatch_us_p50":               "us",
	"naming.dispatch_us_p99":               "us",
	"naming.write_dispatch_us_p50":         "us",
	"winner.best_of_us_p50":                "us",
	"winner.best_of_us_p99":                "us",
	"winner.report_us_p50":                 "us",
	"winner.fallbacks":                     "count",
	"winner.overhead_pct":                  "%",
	"orb.frames_per_read":                  "ratio",
	"orb.server_flushes_coalesced_per_req": "ratio",
	"orb.queue_depth_max":                  "count",
	"orb.inflight_max":                     "count",
	"orb.dials_per_kill":                   "count",
	"orb.admission_shed":                   "count",
	"orb.requests_shed":                    "count",
	"orb.retries":                          "count",
	"gen.late_ms_p99":                      "ms",
	"trace.overhead_pct":                   "%",
}

// perLayer builds a traced run's metrics from the values its workload
// measured, adding every other per-layer metric at 0.
func perLayer(b *bench, vals map[string]float64) map[string]metric {
	vals["error_ratio"] = ratio(float64(b.failed.Load()), float64(b.attempted.Load()))
	out := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		out[name] = metric{vals[name], unit}
	}
	for name := range vals {
		if _, ok := perLayerUnits[name]; !ok {
			panic("perfbench: per-layer metric " + name + " has no unit")
		}
	}
	return out
}

// traceOverhead is how much slower the workload's operation ran at the
// median with spans recorded than without, in percent.
func traceOverhead(traced, untraced float64) float64 {
	return 100 * (traced - untraced) / untraced
}
