package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/ft"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/rosen"
)

// Problem sizes of the solve workloads: Table 1's 100-dimensional,
// 7-worker Rosenbrock problem at 100 worker iterations per solve.
const (
	problemN         = 100
	problemWorkers   = 7
	workerIterations = 100
)

// claimSelector is round-robin naming over the offers no manager proxy
// holds yet. Worker servants are stateful (warm starts), so two proxies
// sharing one would interleave their state and the result could not be
// checked; the naming service therefore hands each resolve an unclaimed
// offer and claims it. A claim ends when its offer is unbound (the ft
// proxy unbinds a dead worker during recovery) or when the solve ends.
// With every offer claimed it falls back to plain round-robin.
type claimSelector struct {
	mu      sync.Mutex
	next    int
	claimed map[orb.ObjectRef]bool
}

func newClaimSelector() *claimSelector {
	return &claimSelector{claimed: make(map[orb.ObjectRef]bool)}
}

func (s *claimSelector) Select(_ naming.Name, offers []naming.Offer) (naming.Offer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := 0; k < len(offers); k++ {
		i := (s.next + k) % len(offers)
		if !s.claimed[offers[i].Ref] {
			s.next = i + 1
			s.claimed[offers[i].Ref] = true
			return offers[i], nil
		}
	}
	i := s.next % len(offers)
	s.next = i + 1
	return offers[i], nil
}

func (s *claimSelector) release(ref orb.ObjectRef) {
	s.mu.Lock()
	delete(s.claimed, ref)
	s.mu.Unlock()
}

func (s *claimSelector) releaseAll() {
	s.mu.Lock()
	s.claimed = make(map[orb.ObjectRef]bool)
	s.mu.Unlock()
}

// claimedRefs returns the claimed references in a stable order.
func (s *claimSelector) claimedRefs() []orb.ObjectRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]orb.ObjectRef, 0, len(s.claimed))
	for r := range s.claimed {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// workerSlot is one worker "workstation": its own ORB serving one timed,
// checkpointable Rosenbrock worker.
type workerSlot struct {
	orb    *orb.ORB
	ref    orb.ObjectRef
	worker *rosen.Worker
	timed  *timedWorker
}

// solveWorld is the deployment of the table1 and recovery workloads:
// naming, the checkpoint store, the manager, an admin client and each
// worker on its own ORB, all over loopback TCP.
type solveWorld struct {
	b *bench

	namingORB, storeORB, manager, admin *orb.ORB
	ns                                  *naming.Servant
	sel                                 *claimSelector
	names                               *timedNames // the manager's resolver
	adminNames                          *naming.Client
	store                               *timedStore // the proxies' store
	name                                naming.Name

	mu      sync.Mutex
	workers map[orb.ObjectRef]*workerSlot
	hosts   int
}

func newSolveWorld(ctx context.Context, b *bench) (*solveWorld, error) {
	w := &solveWorld{b: b, sel: newClaimSelector(), name: naming.NewName(rosen.ServiceName),
		workers: make(map[orb.ObjectRef]*workerSlot)}
	w.namingORB = orb.New(orb.Options{Name: "naming"})
	ad, err := w.namingORB.NewAdapter("127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, err
	}
	reg := naming.NewRegistry()
	reg.SetOfferObserver(func(_ naming.Name, o naming.Offer, bound bool) {
		if !bound {
			w.sel.release(o.Ref)
		}
	})
	w.ns = naming.NewServant(reg, w.sel)
	nsRef := ad.Activate(naming.DefaultKey, w.ns)

	w.storeORB = orb.New(orb.Options{Name: "checkpoint-store"})
	sad, err := w.storeORB.NewAdapter("127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, err
	}
	storeRef := sad.Activate(ft.StoreDefaultKey, ft.NewStoreServant(ft.NewMemStore()))

	w.manager = orb.New(orb.Options{Name: "manager"})
	w.names = &timedNames{c: naming.NewClient(w.manager, nsRef), b: b}
	w.store = &timedStore{inner: ft.NewStoreClient(w.manager, storeRef), b: b}

	w.admin = orb.New(orb.Options{Name: "admin"})
	w.adminNames = naming.NewClient(w.admin, nsRef)
	for j := 0; j < problemWorkers; j++ {
		if _, err := w.addWorker(ctx); err != nil {
			w.close()
			return nil, err
		}
	}
	// Dial the services once so the first timed solve does not pay it.
	w.manager.Prewarm(ctx, nsRef.Addr, storeRef.Addr)
	return w, nil
}

// addWorker starts a worker on a fresh ORB and binds its offer.
func (w *solveWorld) addWorker(ctx context.Context) (*workerSlot, error) {
	w.mu.Lock()
	host := fmt.Sprintf("host%d", w.hosts)
	w.hosts++
	w.mu.Unlock()
	o := orb.New(orb.Options{Name: host})
	ad, err := o.NewAdapter("127.0.0.1:0")
	if err != nil {
		o.Shutdown()
		return nil, err
	}
	rw := rosen.NewWorker(nil)
	tw := &timedWorker{inner: ft.Wrap(rw), b: w.b}
	ref := ad.Activate("worker", tw)
	if err := w.adminNames.BindOffer(ctx, w.name, ref, host); err != nil {
		o.Shutdown()
		return nil, fmt.Errorf("bind worker offer: %w", err)
	}
	slot := &workerSlot{orb: o, ref: ref, worker: rw, timed: tw}
	w.mu.Lock()
	w.workers[ref] = slot
	w.mu.Unlock()
	return slot, nil
}

// kill shuts the worker's ORB down: the listener closes and every
// connection to it dies, as when its workstation crashes.
func (w *solveWorld) kill(ref orb.ObjectRef) {
	w.mu.Lock()
	slot := w.workers[ref]
	delete(w.workers, ref)
	w.mu.Unlock()
	if slot != nil {
		slot.orb.Shutdown()
	}
}

// freshState is the checkpoint of a worker that has never solved.
var freshState = func() []byte {
	b, err := rosen.NewWorker(nil).Checkpoint()
	if err != nil {
		panic(err)
	}
	return b
}()

// resetWorkers puts every live worker back to its initial state and drops
// every claim, so each solve starts from the same state whatever ran
// before it. It calls the workers in-process, not over the ORB.
func (w *solveWorld) resetWorkers() error {
	w.sel.releaseAll()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.workers {
		if err := s.worker.Restore(freshState); err != nil {
			return err
		}
	}
	return nil
}

// solve runs one Manager.Run from fresh worker state.
func (w *solveWorld) solve(ctx context.Context, seed int64, managerIters int, proxied bool, afterRound func(int)) (*rosen.Result, *rosen.Manager, error) {
	if err := w.resetWorkers(); err != nil {
		return nil, nil, err
	}
	m := rosen.NewManager(w.manager, w.names, rosen.Config{
		N: problemN, Workers: problemWorkers,
		WorkerIterations: workerIterations, ManagerIterations: managerIters,
		Seed: seed, AfterRound: afterRound,
	})
	if proxied {
		m.WithFT(rosen.FTOptions{Store: w.store, Policy: ft.Policy{CheckpointEvery: 1}, Unbinder: w.names})
	}
	res, err := m.Run(ctx)
	return res, m, err
}

func (w *solveWorld) close() {
	w.mu.Lock()
	for _, s := range w.workers {
		s.orb.Shutdown()
	}
	w.workers = nil
	w.mu.Unlock()
	for _, o := range []*orb.ORB{w.manager, w.admin, w.storeORB, w.namingORB} {
		if o != nil {
			o.Shutdown()
		}
	}
}

// timedWorker wraps a checkpointable worker servant and times each
// operation it serves.
type timedWorker struct {
	inner orb.Servant
	b     *bench
	// onSolve, when set, runs after each successful solve (the recovery
	// workload marks the replay on a replacement worker with it).
	mu      sync.Mutex
	onSolve func(end time.Time)
}

func (t *timedWorker) TypeID() string { return t.inner.TypeID() }

func (t *timedWorker) Invoke(sctx *orb.ServerContext, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	start := time.Now()
	err := t.inner.Invoke(sctx, op, in, out)
	switch op {
	case rosen.OpSolve:
		t.b.pSolve.observe(start)
		t.mu.Lock()
		f := t.onSolve
		t.onSolve = nil
		t.mu.Unlock()
		if f != nil && err == nil {
			f(time.Now())
		}
	case ft.OpCheckpoint:
		t.b.pCkptFetch.observe(start)
	case ft.OpRestore:
		t.b.pRestore.observe(start)
	}
	return err
}

func (t *timedWorker) setOnSolve(f func(time.Time)) {
	t.mu.Lock()
	t.onSolve = f
	t.mu.Unlock()
}

// timedStore is a checkpoint store decorator that times Put and Get.
type timedStore struct {
	inner ft.Store
	b     *bench
}

func (s *timedStore) Put(ctx context.Context, key string, cp ft.Checkpoint) error {
	start := time.Now()
	err := s.inner.Put(ctx, key, cp)
	s.b.pStorePut.observe(start)
	return err
}

func (s *timedStore) Get(ctx context.Context, key string) (ft.Checkpoint, error) {
	start := time.Now()
	cp, err := s.inner.Get(ctx, key)
	// Gets at proxy construction adopt the previous epoch; only gets made
	// while a recovery is under way are the recovery path's.
	if s.b.killing.Load() {
		s.b.pStoreGet.observe(start)
	}
	return cp, err
}

func (s *timedStore) Delete(ctx context.Context, key string) error { return s.inner.Delete(ctx, key) }
func (s *timedStore) Keys(ctx context.Context) ([]string, error)   { return s.inner.Keys(ctx) }

// timedNames is the manager's resolver: the naming client with Resolve
// and UnbindOffer timed.
type timedNames struct {
	c *naming.Client
	b *bench
}

func (n *timedNames) Resolve(ctx context.Context, name naming.Name) (orb.ObjectRef, error) {
	start := time.Now()
	ref, err := n.c.Resolve(ctx, name)
	// Placement resolves belong to set-up; only a recovery's count.
	if n.b.killing.Load() {
		n.b.pNamingResolve.observe(start)
	}
	return ref, err
}

func (n *timedNames) UnbindOffer(ctx context.Context, name naming.Name, ref orb.ObjectRef) error {
	start := time.Now()
	err := n.c.UnbindOffer(ctx, name, ref)
	n.b.pNamingUnbind.observe(start)
	return err
}
