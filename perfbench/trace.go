package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around the program's public functions.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"` // "round/<n>", "kill/<n>" or "req/<n>"
	Req    uint64 `json:"req"`    // the round, kill or generator request id
}

// tracer keeps spans in memory while enabled; they are written out once
// the run ends.
type tracer struct {
	t0      time.Time
	enabled atomic.Bool
	mu      sync.Mutex
	spans   []span
}

func (t *tracer) record(name string, start, end time.Time, parent string, req uint64) {
	if !t.enabled.Load() {
		return
	}
	s := span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Req: req}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(t.spans), f.Close()
}

// probe times one kind of call. It records only while the tracer is
// enabled, in the traced part of a run, so an untraced run neither pays
// for its samples nor holds them.
type probe struct {
	name string
	b    *bench
	s    samples
}

func (b *bench) probe(name string) *probe {
	p := &probe{name: name, b: b}
	b.probes = append(b.probes, p)
	return p
}

// observe records a call that started at start and ends now, as a child
// of the current round or kill.
func (p *probe) observe(start time.Time) {
	if !p.b.tr.enabled.Load() {
		return
	}
	parent, id := p.b.parent()
	p.observeAs(start, parent, id)
}

// observeAs records a call with an explicit parent.
func (p *probe) observeAs(start time.Time, parent string, req uint64) {
	if !p.b.tr.enabled.Load() {
		return
	}
	end := time.Now()
	p.s.add(end.Sub(start))
	p.b.tr.record(p.name, start, end, parent, req)
}

// us returns the q-quantile of the recorded durations in microseconds.
func (p *probe) us(q float64) float64 { return 1e6 * quantile(p.s.snapshot(), q) }
