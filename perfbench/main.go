// Command perfbench is the repository's end-to-end benchmark. It
// assembles the paper's deployment in-process over loopback TCP from the
// public constructors, each service on its own ORB, drives one workload
// for a fixed time, checks the results against oracles and prints one
// JSON object as its last line of output. See NOTES.md.
//
//	go build -o perfbench . && ./perfbench -workload table1 -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state shared by a run's workload and the wrappers it
// installs around the program's layers.
type bench struct {
	seed    int64
	rng     *rand.Rand
	seconds float64
	tr      tracer

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	firstErr          error

	// parentKind/parentID name what the layer calls made now belong to:
	// the current manager round or the pending kill (solve workloads run
	// one round at a time, so this is exact).
	parentMu   sync.Mutex
	parentKind string
	parentID   uint64
	killing    atomic.Bool // from a kill until its replay ends

	probes []*probe
	// Layer probes shared by the workloads.
	pSolve, pCkptFetch, pRestore       *probe
	pStorePut, pStoreGet               *probe
	pNamingResolve, pNamingUnbind      *probe
	pDispatch, pWriteDispatch, pBestOf *probe
	pReport, pRound                    *probe
}

func newBench(seed int64, seconds float64) *bench {
	b := &bench{seed: seed, rng: rand.New(rand.NewSource(seed)), seconds: seconds}
	b.tr.t0 = time.Now()
	b.pSolve = b.probe("worker.solve")
	b.pCkptFetch = b.probe("worker._get_checkpoint")
	b.pRestore = b.probe("worker._restore")
	b.pStorePut = b.probe("ft.store.put")
	b.pStoreGet = b.probe("ft.store.get")
	b.pNamingResolve = b.probe("naming.resolve")
	b.pNamingUnbind = b.probe("naming.unbind")
	b.pDispatch = b.probe("naming.dispatch")
	b.pWriteDispatch = b.probe("naming.write_dispatch")
	b.pBestOf = b.probe("winner.best_of")
	b.pReport = b.probe("winner.report")
	b.pRound = b.probe("rosen.round")
	return b
}

// setParent names what the following layer calls belong to.
func (b *bench) setParent(kind string, id uint64) {
	b.parentMu.Lock()
	b.parentKind, b.parentID = kind, id
	b.parentMu.Unlock()
}

func (b *bench) parent() (string, uint64) {
	b.parentMu.Lock()
	defer b.parentMu.Unlock()
	return b.parentKind, b.parentID
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (b *bench) op(err error) {
	b.attempted.Add(1)
	if err != nil {
		b.failed.Add(1)
		b.errMu.Lock()
		if b.firstErr == nil {
			b.firstErr = err
		}
		b.errMu.Unlock()
	}
}

// resetProbes drops everything recorded so far (warm-up and the untraced
// half of a traced run).
func (b *bench) resetProbes() {
	for _, p := range b.probes {
		p.s.reset()
	}
}

// heapSampler samples the live heap every 20 ms while running.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mibs []float64 // written by the sampler goroutine until done closes
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			h.mibs = append(h.mibs, float64(liveHeap())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// halt stops the sampler and returns the live heap in MiB: its p90 over
// the samples, and its peak. The live heap changes only when a GC cycle
// ends, and its very peak is one cycle's accident; the p90 is what the
// run holds for a tenth of its time.
func (h *heapSampler) halt() (p90, peak float64) {
	close(h.stop)
	<-h.done
	return quantile(h.mibs, 0.9), quantile(h.mibs, 1)
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// workload runs one benchmark workload. It returns the end-to-end metrics
// when traced is false and the per-layer metrics when it is true.
type workload func(ctx context.Context, b *bench, traced bool) (map[string]metric, error)

// workloads maps each workload to its function and GOMAXPROCS. The
// program under test runs on one P in every workload: a second P adds
// cross-P wakeups that cost a fifth more CPU per solve and make runs
// spread more on a shared VM. resolve's open-loop generator holds a
// second P of its own (see waitUntil).
var workloads = map[string]struct {
	run   workload
	procs int
}{
	"table1":   {runTable1, 1},
	"recovery": {runRecovery, 1},
	"resolve":  {runResolve, 2},
}

func main() {
	name := flag.String("workload", "", "table1, recovery or resolve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	out := flag.String("out", ".", "directory for the traced run's span file")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload table1|recovery|resolve -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(wl.procs, runtime.NumCPU()))

	b := newBench(*seed, *seconds)
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	ms, err := wl.run(ctx, b, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if *trace == 1 {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		n, err := b.tr.writeJSONL(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans in %s\n", n, path)
	}
	res := result{
		Correct:   b.failed.Load() == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   ms,
	}
	b.errMu.Lock()
	if b.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", b.firstErr)
	}
	b.errMu.Unlock()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
