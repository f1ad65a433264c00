package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/giop"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/rosen"
	"repro/internal/winner"
)

// Fixed parameters of the resolve workload.
const (
	resolveHosts   = 9                      // Figure 3's worker hosts, one leased offer each
	resolveClients = 4                      // client ORBs the generator spreads its requests over
	resolveSenders = 64                     // requests the clients may have outstanding at once
	leaseTTL       = time.Minute            // outlives any run, so no offer expires mid-run
	lateBound      = 500 * time.Microsecond // a run whose generator is later than this at p50 is invalid
	ladderLimit    = 10 * time.Millisecond  // the resolve p99 a rate of the ladder must meet
	plainEvery     = 8                      // one resolve in plainEvery goes to the plain service
)

// ladderRates are the offered rates resolve_max_rps climbs, in order.
var ladderRates = []float64{4000, 8000, 12000, 16000, 20000, 24000, 28000, 32000}

// The resolve workload's traffic (NOTES.md, "resolve"). The offered rate
// is a synthetic stress point, not a measured one: it leaves headroom
// below resolve_max_rps and keeps the services busy enough that the CPU
// a request costs does not depend on how cheaply the host wakes an idle
// vCPU. The writes come at the rates the daemons' defaults give a 9-host
// group, whatever the offered rate.
const (
	resolveRate = 8000 // offered requests per second

	// winnerd -period: each host's node manager reports once a period.
	reportPeriod = 2 * time.Second
	// workerd -ttl: naming.LeaseRenewer renews each offer every TTL/3.
	workerTTL = 2 * time.Second
	// A spare worker joining (BindOffer) or leaving (UnbindOffer) once a
	// second each. No default fixes how often workers come and go, so
	// this rate is synthetic.
	churnRate = 2.0
)

var (
	reportRate = resolveHosts / reportPeriod.Seconds()    // 4.5/s
	renewRate  = resolveHosts / (workerTTL / 3).Seconds() // 13.5/s
)

// offerTypeID is the type of the group's offer references. Nothing calls
// them: the workload exercises naming and Winner only.
const offerTypeID = "IDL:repro/Rosenbrock/Worker:1.0"

// benchSC is the service context that carries the generator's request
// id to the naming dispatch in traced runs.
const benchSC uint32 = 0x50424e43 // "PBNC"

type reqKey struct{}

// reqIDInterceptor copies the generator's request id from the call's
// context into the request, so the server-side spans can name it.
type reqIDInterceptor struct{ tr *tracer }

func (r reqIDInterceptor) RequestSent(ctx context.Context, m *giop.Message) context.Context {
	if !r.tr.enabled.Load() {
		return ctx
	}
	if id, ok := ctx.Value(reqKey{}).(uint64); ok {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], id)
		m.SetContext(benchSC, buf[:])
	}
	return ctx
}
func (reqIDInterceptor) ReplyReceived(context.Context, *giop.Message, *giop.Message, error) {}
func (reqIDInterceptor) DispatchStart(ctx context.Context, _ *giop.Message) context.Context {
	return ctx
}
func (reqIDInterceptor) DispatchEnd(context.Context, *giop.Message, *giop.Message) {}

// requestID reads the generator's request id from a dispatched request.
func requestID(sctx *orb.ServerContext) uint64 {
	if sctx.Request == nil {
		return 0
	}
	if d := sctx.Request.Context(benchSC); len(d) == 8 {
		return binary.LittleEndian.Uint64(d)
	}
	return 0
}

// timedNaming wraps the naming servant and times each dispatch.
type timedNaming struct {
	inner *naming.Servant
	b     *bench
}

func (t *timedNaming) TypeID() string { return t.inner.TypeID() }

func (t *timedNaming) Invoke(sctx *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	start := time.Now()
	err := t.inner.Invoke(sctx, op, in, out)
	id := requestID(sctx)
	switch op {
	case "resolve":
		t.b.pDispatch.observeAs(start, "req", id)
	case "renew_lease", "bind_offer", "unbind_offer":
		t.b.pWriteDispatch.observeAs(start, "req", id)
	}
	return err
}

// timedRanker is a core.HostRanker decorator that times each ranking.
// The selector calls it on the dispatch's goroutine without a context,
// so its span names the dispatch as parent but carries no request id.
type timedRanker struct {
	inner core.HostRanker
	b     *bench
}

func (r timedRanker) BestOf(candidates []string) (string, error) {
	start := time.Now()
	host, err := r.inner.BestOf(candidates)
	r.b.pBestOf.observeAs(start, "naming.dispatch", 0)
	return host, err
}

// resolveWorld is the Winner-enhanced naming deployment as
// "nameserver -winner" runs it: the Winner system manager on its own ORB,
// the naming service on another, ranking through core.ClientRanker. The
// group's offer references live on a third ORB, node-manager reports come
// from a fourth and the generator's clients from their own.
type resolveWorld struct {
	b                                    *bench
	winnerORB, namingORB, hostsORB, node *orb.ORB
	clients                              []*orb.ORB
	names, plain                         []*naming.Client
	reporter                             *winner.Client
	sel                                  *core.WinnerSelector
	sweeper                              *naming.Sweeper
	name                                 naming.Name

	samples  []winner.LoadSample // each host's static sample, by host index
	seq      atomic.Uint64
	hostRefs []orb.ObjectRef // the group's permanent offers, by host index
	bestRef  orb.ObjectRef   // the offer an in-process winner.Manager ranks best
	hostsAd  string
}

func newResolveWorld(ctx context.Context, b *bench, rng *rand.Rand) (*resolveWorld, error) {
	w := &resolveWorld{b: b, name: naming.NewName(rosen.ServiceName)}

	w.winnerORB = orb.New(orb.Options{Name: "winnerd"})
	wad, err := w.winnerORB.NewAdapter("127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, err
	}
	mgr := winner.NewManager()
	winnerRef := wad.Activate(winner.DefaultKey, winner.NewServant(mgr))

	w.namingORB = orb.New(orb.Options{Name: "nameserver"})
	nad, err := w.namingORB.NewAdapter("127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, err
	}
	reg := naming.NewRegistry()
	w.sel = core.NewWinnerSelector(timedRanker{inner: core.ClientRanker{C: winner.NewClient(w.namingORB, winnerRef)}, b: b}, nil)
	nsRef := nad.Activate(naming.DefaultKey, &timedNaming{inner: naming.NewServant(reg, w.sel), b: b})
	plainRef := nad.Activate("PlainNameService", core.NewPlainNamingServant(reg))
	w.sweeper = naming.NewSweeper(reg, naming.SweeperOptions{Period: 500 * time.Millisecond})
	w.sweeper.Start()

	// The group's offers: one per host, leased, with static load samples.
	// Every host has more CPUs than a run makes placements, so the
	// pending-placement charge never changes the ranking and each resolve
	// can be checked against an in-process winner.Manager.
	w.hostsORB = orb.New(orb.Options{Name: "hosts"})
	had, err := w.hostsORB.NewAdapter("127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, err
	}
	w.hostsAd = had.Addr()
	w.node = orb.New(orb.Options{Name: "node-managers"})
	w.reporter = winner.NewClient(w.node, winnerRef)
	admin := naming.NewClient(w.node, nsRef)
	shadow := winner.NewManager()
	var hosts []string
	for i := 0; i < resolveHosts; i++ {
		host := fmt.Sprintf("host%d", i)
		ref := orb.ObjectRef{TypeID: offerTypeID, Addr: w.hostsAd, Key: "worker-" + host}
		if err := admin.BindOfferLease(ctx, w.name, ref, host, leaseTTL); err != nil {
			w.close()
			return nil, fmt.Errorf("bind offer: %w", err)
		}
		s := winner.LoadSample{Host: host, Speed: 0.5 + rng.Float64(), RunQueue: float64(rng.Intn(4)),
			CPUs: 1 << 30, Seq: w.seq.Add(1)}
		if err := w.reporter.Report(ctx, s); err != nil {
			w.close()
			return nil, fmt.Errorf("report sample: %w", err)
		}
		shadow.Report(s)
		hosts = append(hosts, host)
		w.samples = append(w.samples, s)
		w.hostRefs = append(w.hostRefs, ref)
	}
	best, err := shadow.BestOf(hosts)
	if err != nil {
		w.close()
		return nil, err
	}
	for i, h := range hosts {
		if h == best {
			w.bestRef = w.hostRefs[i]
		}
	}

	for i := 0; i < resolveClients; i++ {
		o := orb.New(orb.Options{Name: fmt.Sprintf("client%d", i), CallInterceptors: []orb.CallInterceptor{reqIDInterceptor{&b.tr}}})
		w.clients = append(w.clients, o)
		w.names = append(w.names, naming.NewClient(o, nsRef))
		w.plain = append(w.plain, naming.NewClient(o, plainRef))
		o.Prewarm(ctx, nsRef.Addr)
	}
	w.namingORB.Prewarm(ctx, winnerRef.Addr)
	return w, nil
}

func (w *resolveWorld) close() {
	if w.sweeper != nil {
		w.sweeper.Stop()
	}
	for _, o := range w.orbs() {
		if o != nil {
			o.Shutdown()
		}
	}
}

// orbs lists every ORB of the deployment.
func (w *resolveWorld) orbs() []*orb.ORB {
	return append([]*orb.ORB{w.winnerORB, w.namingORB, w.hostsORB, w.node}, w.clients...)
}

type opKind uint8

const (
	opResolve opKind = iota
	opResolvePlain
	opRenew
	opBind
	opUnbind
	opReport
)

// job is one generated request.
type job struct {
	id    uint64
	kind  opKind
	arg   int           // host index (renew, report)
	ref   orb.ObjectRef // the churn offer (bind, unbind)
	due   time.Time
	bound chan struct{} // bind: closed when done; unbind: waited on first
}

// driveStats is what one open-loop phase measured. Latencies are timed
// from each request's due time.
type driveStats struct {
	resolve, plain samples // Winner-ranked and plain resolves
	write, late    samples
	done           atomic.Int64  // requests completed
	pacerCPU       time.Duration // CPU the pacing thread used
	drain          time.Duration // from the last request's due time to the last completion

	// A ladder step counts its failures here and not in the run's result:
	// past the highest sustainable rate, failures are the step's outcome.
	ladder bool
	failed atomic.Int64
}

// scheduler generates the request sequence from its rng: the op mix and
// its arguments. Only the pacer calls it.
type scheduler struct {
	rng         *rand.Rand
	rate        float64 // the offered rate, which the writes' shares scale with
	hostsAddr   string
	nextID      uint64
	resolves    int
	churn       int
	pendingBind *job // the bind the next churn op unbinds
}

func (s *scheduler) next() *job {
	s.nextID++
	j := &job{id: s.nextID}
	x := s.rng.Float64() * s.rate
	switch {
	case x < reportRate:
		j.kind, j.arg = opReport, s.rng.Intn(resolveHosts)
	case x < reportRate+renewRate:
		j.kind, j.arg = opRenew, s.rng.Intn(resolveHosts)
	case x < reportRate+renewRate+churnRate:
		if s.pendingBind == nil {
			s.churn++
			j.kind, j.bound = opBind, make(chan struct{})
			j.ref = orb.ObjectRef{TypeID: offerTypeID, Addr: s.hostsAddr, Key: fmt.Sprintf("churn-%d", s.churn)}
			s.pendingBind = j
		} else {
			j.kind, j.ref, j.bound = opUnbind, s.pendingBind.ref, s.pendingBind.bound
			s.pendingBind = nil
		}
	default:
		j.kind = opResolve
		if s.resolves%plainEvery == plainEvery-1 {
			j.kind = opResolvePlain
		}
		s.resolves++
	}
	return j
}

// waitUntil returns at t. The runtime's timers wake a sleeper about a
// millisecond late, more than a resolve takes, so the pacer sleeps in
// nanosleep(2) with the thread's timer slack at its minimum and spins
// for the last few microseconds. The raw syscall keeps the pacer's P
// while it sleeps: the generator holds one P and the services run on the
// other, as if the clients ran on a machine of their own. With two CPUs
// or more the pacer's thread also runs on a CPU of its own (pinPacer).
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 30*time.Microsecond {
			ts := syscall.NsecToTimespec((d - 15*time.Microsecond).Nanoseconds())
			_, _, _ = syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0) // EINTR: loop and recompute
		}
	}
}

// Which vCPU of a shared 2-vCPU VM the services and the pacer ran on
// changed from second to second, and the CPU a resolve cost with it: the
// p50 of ten runs spread by 0.2 to 0.3. So, where the process may run on
// two CPUs or more, pinProcess binds it to the first of them and the
// pacer's thread to the second while it paces; six runs then spread by
// 0.06 (NOTES.md, "Host speed").
type cpuMask [16]uint64 // 1024 CPUs, as sched_setaffinity(2) takes them

var cpuServices, cpuPacer cpuMask // both zero: not pinned

func setAffinity(tid int, m *cpuMask) {
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))) // best effort
}

// pinProcess binds every thread of the process to the first CPU it may
// run on, when it may run on two or more. Threads the runtime starts
// later inherit the binding from the thread that starts them.
func pinProcess() {
	var allowed cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return
	}
	var cpus []int
	for cpu := 0; cpu < 64*len(allowed) && len(cpus) < 2; cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	if len(cpus) < 2 {
		return
	}
	cpuServices[cpus[0]/64] = 1 << (cpus[0] % 64)
	cpuPacer[cpus[1]/64] = 1 << (cpus[1] % 64)
	tasks, _ := os.ReadDir("/proc/self/task")
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			setAffinity(tid, &cpuServices)
		}
	}
}

// pinPacer locks the calling goroutine to its thread, moves the thread to
// the pacer's CPU if pinProcess bound the process, and sets its timer
// slack to 1ns, so nanosleep wakes on time. unpinPacer undoes the move.
func pinPacer() {
	runtime.LockOSThread()
	if cpuPacer != (cpuMask{}) {
		setAffinity(syscall.Gettid(), &cpuPacer)
	}
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort
}

func unpinPacer() {
	if cpuServices != (cpuMask{}) {
		setAffinity(syscall.Gettid(), &cpuServices)
	}
	runtime.UnlockOSThread()
}

// drive sends jobs open-loop at rate from one pacing goroutine. Senders
// stand for the clients' outstanding requests; a request is timed from
// when it was due, so waiting behind a stalled request counts.
func (w *resolveWorld) drive(ctx context.Context, sched *scheduler, n int, rate float64, st *driveStats) {
	// Holds 8 s of requests at 8000/s: a stalled server grows this
	// backlog instead of blocking the pacer.
	ch := make(chan *job, 1<<16)
	var wg sync.WaitGroup
	for s := 0; s < resolveSenders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				w.exec(ctx, j, st)
			}
		}()
	}
	pinPacer()
	defer unpinPacer()
	cpu0 := threadCPU()
	sched.rate = rate
	interval := float64(time.Second) / rate
	start := time.Now().Add(time.Millisecond)
	var due time.Time
	for i := 0; i < n; i++ {
		j := sched.next()
		due = start.Add(time.Duration(float64(i) * interval))
		j.due = due
		waitUntil(j.due)
		st.late.add(time.Since(j.due))
		ch <- j
		if ctx.Err() != nil {
			break
		}
	}
	st.pacerCPU = threadCPU() - cpu0
	close(ch)
	wg.Wait()
	st.drain = time.Since(due)
}

// exec performs one request and checks its outcome.
func (w *resolveWorld) exec(ctx context.Context, j *job, st *driveStats) {
	b := w.b
	if b.tr.enabled.Load() {
		ctx = context.WithValue(ctx, reqKey{}, j.id)
	}
	c := int(j.id % resolveClients)
	start := time.Now()
	var err error
	switch j.kind {
	case opResolve:
		var ref orb.ObjectRef
		ref, err = w.names[c].Resolve(ctx, w.name)
		b.pNamingResolve.observeAs(start, "req", j.id)
		st.resolve.add(time.Since(j.due))
		// Oracle: the static samples rank one host best.
		if err == nil && ref != w.bestRef {
			err = fmt.Errorf("resolve %d returned %v, want the best host's offer %v", j.id, ref, w.bestRef)
		}
	case opResolvePlain:
		var ref orb.ObjectRef
		ref, err = w.plain[c].Resolve(ctx, w.name)
		st.plain.add(time.Since(j.due))
		if err == nil && !w.isOffer(ref) {
			err = fmt.Errorf("plain resolve %d returned %v, not an offer of the group", j.id, ref)
		}
	case opRenew:
		err = w.names[c].RenewLease(ctx, w.name, w.hostRefs[j.arg], leaseTTL)
		st.write.add(time.Since(j.due))
	case opBind:
		err = w.names[c].BindOffer(ctx, w.name, j.ref, "spare")
		st.write.add(time.Since(j.due))
		close(j.bound)
	case opUnbind:
		<-j.bound
		err = w.names[c].UnbindOffer(ctx, w.name, j.ref)
		st.write.add(time.Since(j.due))
	case opReport:
		s := w.samples[j.arg]
		s.Seq = w.seq.Add(1)
		err = w.reporter.Report(ctx, s)
		b.pReport.observeAs(start, "req", j.id)
		st.write.add(time.Since(j.due))
	}
	st.done.Add(1)
	if st.ladder {
		if err != nil {
			st.failed.Add(1)
		}
		return
	}
	b.op(err)
}

// isOffer reports whether ref is one of the group's offers: a permanent
// one, or a churn offer the write mix binds.
func (w *resolveWorld) isOffer(ref orb.ObjectRef) bool {
	for _, r := range w.hostRefs {
		if r == ref {
			return true
		}
	}
	return ref.Addr == w.hostsAd && strings.HasPrefix(ref.Key, "churn-")
}

// gaugeSampler records the naming ORB's dispatch-queue depth and
// in-flight dispatches while running.
type gaugeSampler struct {
	stop, done            chan struct{}
	queueMax, inflightMax int64
}

func startGaugeSampler(o *orb.ORB) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			s := o.Stats()
			if int64(s.DispatchQueueDepth) > g.queueMax {
				g.queueMax = int64(s.DispatchQueueDepth)
			}
			if s.InFlight > g.inflightMax {
				g.inflightMax = s.InFlight
			}
			select {
			case <-g.stop:
				return
			case <-t.C:
			}
		}
	}()
	return g
}

func (g *gaugeSampler) halt() {
	close(g.stop)
	<-g.done
}

// threadCPU is the CPU time of the calling thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// runResolve drives the Winner-enhanced naming service open-loop at
// resolveRate, with the writes at their deployed rates.
func runResolve(ctx context.Context, b *bench, traced bool) (map[string]metric, error) {
	// The schedule's rng is separate from the deployment's so both depend
	// on the seed alone.
	rng := rand.New(rand.NewSource(b.seed))
	pinProcess()
	host, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer host.close()
	clock := &setupClock[*resolveWorld]{build: func(ctx context.Context) (*resolveWorld, error) {
		return newResolveWorld(ctx, b, rand.New(rand.NewSource(b.seed^0x5eed)))
	}, teardown: (*resolveWorld).close, host: host}
	w, err := clock.start(ctx)
	if err != nil {
		return nil, err
	}
	defer w.close()

	sched := &scheduler{rng: rng, hostsAddr: w.hostsAd}
	type phaseStats struct {
		*driveStats
		cpu                time.Duration
		heapMB, heapPeakMB float64
		shed               shedCounts
	}
	phase := func(d time.Duration, tracing bool) (*phaseStats, error) {
		n := int(d.Seconds() * resolveRate)
		st := &phaseStats{driveStats: &driveStats{}}
		b.resetProbes()
		b.tr.enabled.Store(tracing)
		heap := startHeapSampler()
		shed0 := countShed(w.orbs())
		cpu0 := cpuTime()
		w.drive(ctx, sched, n, resolveRate, st.driveStats)
		st.cpu = cpuTime() - cpu0 - st.pacerCPU
		b.tr.enabled.Store(false)
		st.shed = countShed(w.orbs()).minus(shed0)
		st.heapMB, st.heapPeakMB = heap.halt()
		if err := st.keptSchedule(); err != nil {
			return nil, fmt.Errorf("%w: the run is invalid", err)
		}
		return st, ctx.Err()
	}

	if _, err := phase(500*time.Millisecond, false); err != nil {
		return nil, err
	}
	b.attempted.Store(0)
	b.failed.Store(0)
	d := time.Duration(b.seconds * float64(time.Second))
	fallbacks0 := w.sel.Fallbacks()
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
			p50:      sliceQuantile(st.resolve.snapshot(), nil, 0.5),
			p75:      sliceQuantile(st.resolve.snapshot(), nil, 0.75),
			cpuPerOp: st.cpu.Seconds() / float64(st.done.Load()),
			heapMB:   st.heapMB,
		}.metrics(), nil
	}
	// A traced run spends a third of its time untraced, a third traced
	// and a third on the rate ladder.
	base, err := phase(d/3, false)
	if err != nil {
		return nil, err
	}
	n0 := w.namingORB.Stats()
	gauges := startGaugeSampler(w.namingORB)
	st, err := phase(d/3, true)
	gauges.halt()
	if err != nil {
		return nil, err
	}
	n1 := w.namingORB.Stats()
	fallbacks := w.sel.Fallbacks() - fallbacks0
	maxRPS, err := w.maxRate(ctx, sched, d/3)
	if err != nil {
		return nil, err
	}
	return perLayer(b, map[string]float64{
		"resolve_ms_p50":                       1e3 * quantile(base.resolve.snapshot(), 0.5),
		"resolve_ms_p99":                       1e3 * quantile(base.resolve.snapshot(), 0.99),
		"write_ms_p50":                         1e3 * median(base.write.snapshot()),
		"write_ms_p99":                         1e3 * quantile(base.write.snapshot(), 0.99),
		"resolve_max_rps":                      maxRPS,
		"heap_peak_mb":                         base.heapPeakMB,
		"naming.resolve_us_p50":                b.pNamingResolve.us(0.5),
		"naming.dispatch_us_p50":               b.pDispatch.us(0.5),
		"naming.dispatch_us_p99":               b.pDispatch.us(0.99),
		"naming.write_dispatch_us_p50":         b.pWriteDispatch.us(0.5),
		"winner.best_of_us_p50":                b.pBestOf.us(0.5),
		"winner.best_of_us_p99":                b.pBestOf.us(0.99),
		"winner.report_us_p50":                 b.pReport.us(0.5),
		"winner.fallbacks":                     float64(fallbacks),
		"winner.overhead_pct":                  100 * (median(st.resolve.snapshot()) - median(st.plain.snapshot())) / median(st.plain.snapshot()),
		"orb.frames_per_read":                  ratio(float64(n1.FramesRead-n0.FramesRead), float64(n1.FrameReads-n0.FrameReads)),
		"orb.server_flushes_coalesced_per_req": ratio(float64(n1.ServerFlushesCoalesced-n0.ServerFlushesCoalesced), float64(n1.RequestsServed-n0.RequestsServed)),
		"orb.queue_depth_max":                  float64(gauges.queueMax),
		"orb.inflight_max":                     float64(gauges.inflightMax),
		"orb.admission_shed":                   float64(st.shed.admission),
		"orb.requests_shed":                    float64(st.shed.shed),
		"orb.retries":                          float64(st.shed.retries),
		"gen.late_ms_p99":                      1e3 * quantile(st.late.snapshot(), 0.99),
		"trace.overhead_pct":                   traceOverhead(median(st.resolve.snapshot()), median(base.resolve.snapshot())),
	}), nil
}

// keptSchedule reports an error when the generator was more than
// lateBound late for half its requests. Host stalls make the tail of the
// lateness wander; a generator that cannot keep its schedule, or paces by
// the runtime's timers, is late for most of its requests.
func (st *driveStats) keptSchedule() error {
	if lp := quantile(st.late.snapshot(), 0.5); lp > lateBound.Seconds() {
		return fmt.Errorf("generator ran %.3f ms late at p50, over the %v bound", 1e3*lp, lateBound)
	}
	return nil
}

// maxRate climbs ladderRates, spending d on the ladder in equal steps, and
// returns the highest rate whose step met ladderLimit: Winner-ranked
// resolve p99 within the limit, no request failed or wrong, and every
// request done within the limit of the step's last due time, so no
// backlog grew. It stops at the first rate that fails, or at the first the
// generator cannot keep, and returns 0 if the lowest rate fails.
func (w *resolveWorld) maxRate(ctx context.Context, sched *scheduler, d time.Duration) (float64, error) {
	step := d / time.Duration(len(ladderRates))
	best := 0.0
	for _, rate := range ladderRates {
		st := &driveStats{ladder: true}
		w.drive(ctx, sched, int(step.Seconds()*rate), rate, st)
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		p99 := quantile(st.resolve.snapshot(), 0.99)
		late := st.keptSchedule()
		met := late == nil && st.failed.Load() == 0 && p99 <= ladderLimit.Seconds() && st.drain <= ladderLimit
		fmt.Fprintf(os.Stderr, "perfbench: ladder %.0f/s: resolve p99 %.3f ms, %d failed, drained in %.3f ms, schedule: %v, met: %v\n",
			rate, 1e3*p99, st.failed.Load(), 1e3*st.drain.Seconds(), late, met)
		if !met {
			break
		}
		best = rate
	}
	return best, nil
}
