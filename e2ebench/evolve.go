package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/manager"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/version"
)

// The evolve workload runs journalled manager passes back to back over a
// fleet of remotely hosted DCDOs while one caller keeps invoking greet.
// evolve-quiesced runs the same passes, but the caller waits while each one
// runs, so no call overlaps an ApplyDescriptor and every answer must come
// from the implementation current when it was sent.
// Pass k (counted from the fleet's creation) is, by k mod 4: a retune-only
// swap of greet's implementation, incorporation of the cached stats
// component, another swap, and removal of stats again.
const (
	fleetSize      = 32
	greetArgBytes  = 32
	componentBytes = 64 << 10
	// warmPasses runs one full cycle of pass kinds during set-up, so every
	// component is in the host cache before timing starts.
	warmPasses = 4
)

// greetTags are the first reply byte of each greet implementation.
var greetTags = [2]byte{'A', 'B'}

var (
	statsKey = dfm.EntryKey{Function: "stats", Component: "stats"}
	greetA   = dfm.EntryKey{Function: "greet", Component: "greet-a"}
	greetB   = dfm.EntryKey{Function: "greet", Component: "greet-b"}
)

type evolveEnv struct {
	*cluster
	t *tracer

	mgr     *manager.Manager
	journal *manager.Journal
	dir     string
	fleet   []naming.LOID
	dcdos   []*core.DCDO
	refs    map[string]dfm.ComponentRef
	tails   [][]byte

	cur    version.ID
	passes int
	// phase is 2k between passes once k passes are done and 2k+1 while
	// pass k runs; callers read it before and after each call to know
	// which implementations an answer may come from.
	phase atomic.Uint64
	// calls counts completed calls; every passEvery-th one kicks the
	// manager.
	calls atomic.Uint64
	kick  chan struct{}
	// quiesce, when set, keeps calls and passes apart: a call holds it
	// shared and a pass exclusively.
	quiesce *sync.RWMutex
	// passDur holds the durations of passes run by run (set-up passes
	// excluded); owned by the pass goroutine until it returns.
	passDur []time.Duration
}

// implAfter is the index of greet's enabled implementation once k passes
// have run: passes 0, 2, 4, ... swap it.
func implAfter(k uint64) int { return int((k+1)/2) % 2 }

// allowedIn reports whether implementation impl may answer a call that
// overlapped phases p0..p1.
func allowedIn(impl int, p0, p1 uint64) bool {
	for p := p0; p <= p1; p++ {
		k := p / 2
		if implAfter(k) == impl || (p%2 == 1 && implAfter(k+1) == impl) {
			return true
		}
	}
	return false
}

func setupEvolve(seed int64, t *tracer) (env, error) { return newEvolve(seed, t, nil) }

func setupEvolveQuiesced(seed int64, t *tracer) (env, error) {
	return newEvolve(seed, t, &sync.RWMutex{})
}

func newEvolve(seed int64, t *tracer, quiesce *sync.RWMutex) (env, error) {
	e := &evolveEnv{cluster: &cluster{}, t: t, kick: make(chan struct{}, 1), quiesce: quiesce}
	if err := e.build(seed); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *evolveEnv) build(seed int64) error {
	ctx := context.Background()
	fleetNode, err := e.startNode("fleet")
	if err != nil {
		return err
	}
	mgrNode, err := e.startNode("manager")
	if err != nil {
		return err
	}

	reg := registry.New()
	greet := func(tag byte) registry.Func {
		return func(_ registry.Caller, args []byte) ([]byte, error) {
			out := make([]byte, 1+len(args))
			out[0] = tag
			copy(out[1:], args)
			return out, nil
		}
	}
	modules := []struct {
		id, fn string
		impl   registry.Func
	}{
		{"greet-a", "greet", greet(greetTags[0])},
		{"greet-b", "greet", greet(greetTags[1])},
		{"stats", "stats", func(c registry.Caller, _ []byte) ([]byte, error) { return []byte{byte(c.State().Len())}, nil }},
	}
	e.refs = make(map[string]dfm.ComponentRef, len(modules))
	for i, m := range modules {
		ref := m.id + ":1"
		if _, err := reg.Register(ref, registry.NativeImplType, map[string]registry.Func{m.fn: m.impl}); err != nil {
			return err
		}
		comp, err := component.NewSynthetic(component.Descriptor{
			ID: m.id, Revision: 1, CodeRef: ref,
			Impl: registry.NativeImplType, CodeSize: componentBytes,
			Functions: []component.FunctionDecl{{Name: m.fn, Exported: true}},
		})
		if err != nil {
			return err
		}
		ico := naming.LOID{Domain: 5, Class: 9, Instance: uint64(i + 1)}
		if _, err := fleetNode.HostObject(ico, component.NewICO(comp)); err != nil {
			return err
		}
		e.refs[m.id] = dfm.ComponentRef{ICO: ico, CodeRef: ref, Impl: registry.NativeImplType, CodeSize: componentBytes, Revision: 1}
	}
	// The fleet node's component cache, as dcdo-node's demo wires it.
	var fetcher component.Fetcher = &component.CachingFetcher{
		Store:   component.NewStore(),
		Backing: &component.RemoteFetcher{Client: fleetNode.Client()},
	}
	if e.t != nil {
		fetcher = tracedFetcher{t: e.t, f: fetcher}
	}

	e.mgr = manager.New(evolution.MultiIncreasing, evolution.Explicit)
	e.mgr.SetObs(mgrNode.Obs())
	if e.dir, err = os.MkdirTemp("", "evolve-journal-*"); err != nil {
		return err
	}
	if e.journal, err = manager.OpenJournal(filepath.Join(e.dir, "evolution.journal")); err != nil {
		return err
	}
	e.mgr.SetJournal(e.journal)
	root := dfm.NewDescriptor()
	root.Components["greet-a"] = e.refs["greet-a"]
	root.Components["greet-b"] = e.refs["greet-b"]
	root.Entries = []dfm.EntryDesc{
		{Function: "greet", Component: "greet-a", Exported: true, Enabled: true},
		{Function: "greet", Component: "greet-b", Exported: true, Enabled: false},
	}
	if e.cur, err = e.mgr.Store().CreateRoot(root); err != nil {
		return err
	}
	if err := e.mgr.Store().MarkInstantiable(e.cur); err != nil {
		return err
	}
	if err := e.mgr.SetCurrentVersion(ctx, e.cur); err != nil {
		return err
	}

	for i := 0; i < fleetSize; i++ {
		loid := naming.LOID{Domain: 5, Class: 1, Instance: uint64(i + 1)}
		obj := core.New(core.Config{LOID: loid, Registry: reg, Fetcher: fetcher})
		var hosted rpc.Object = obj
		if e.t != nil {
			hosted = &tracedObject{t: e.t, obj: obj}
		}
		if _, err := fleetNode.HostObject(loid, hosted); err != nil {
			return err
		}
		var inst manager.Instance = manager.RemoteInstance{Client: mgrNode.Client(), Target: loid}
		if e.t != nil {
			inst = tracedInstance{Instance: inst, t: e.t}
		}
		if err := e.mgr.CreateInstance(ctx, inst, e.cur, registry.NativeImplType); err != nil {
			return err
		}
		e.fleet = append(e.fleet, loid)
		e.dcdos = append(e.dcdos, obj)
	}
	e.startClient(e.t)
	for _, loid := range e.fleet {
		if _, err := e.cache.Resolve(loid); err != nil {
			return fmt.Errorf("warm naming cache: %w", err)
		}
	}
	for i := 0; i < warmPasses; i++ {
		if _, err := e.pass(ctx); err != nil {
			return err
		}
	}
	e.tails = payloadPool(rand.New(rand.NewSource(seed)), payloadVariety, greetArgBytes-8)
	return nil
}

// configure derives pass k's target descriptor from its parent.
func (e *evolveEnv) configure(d *dfm.Descriptor, k int) error {
	switch k % 4 {
	case 0, 2:
		a, b := d.Entry(greetA), d.Entry(greetB)
		if a == nil || b == nil {
			return fmt.Errorf("pass %d: greet entries missing", k)
		}
		a.Enabled, b.Enabled = b.Enabled, a.Enabled
	case 1:
		d.Components["stats"] = e.refs["stats"]
		d.Entries = append(d.Entries, dfm.EntryDesc{Function: "stats", Component: "stats", Exported: true, Enabled: true})
	case 3:
		delete(d.Components, "stats")
		kept := d.Entries[:0]
		for _, en := range d.Entries {
			if en.Key() != statsKey {
				kept = append(kept, en)
			}
		}
		d.Entries = kept
	}
	return nil
}

// pass derives a fresh version, designates it current and evolves the
// whole fleet to it in one journalled pass, then checks that every instance
// reached it.
func (e *evolveEnv) pass(ctx context.Context) (time.Duration, error) {
	k := e.passes
	var op uint64
	if e.t != nil {
		op = e.t.newPassOp()
	}
	start := time.Now()
	st := e.mgr.Store()
	next, err := st.Derive(e.cur)
	if err != nil {
		return 0, err
	}
	if err := st.Configure(next, func(d *dfm.Descriptor) error { return e.configure(d, k) }); err != nil {
		return 0, err
	}
	if err := st.MarkInstantiable(next); err != nil {
		return 0, err
	}
	if err := e.mgr.SetCurrentVersion(ctx, next); err != nil {
		return 0, err
	}
	e.phase.Store(uint64(2*k + 1))
	rep, err := e.mgr.EvolveFleet(ctx, next)
	e.phase.Store(uint64(2*k + 2))
	d := time.Since(start)
	if e.t != nil && e.t.on.Load() {
		e.t.record(kMgrPass, op, start)
	}
	e.passes++
	e.cur = next
	if err != nil {
		return d, fmt.Errorf("pass %d to %s: %w", k, next, err)
	}
	if len(rep.Evolved) != fleetSize || len(rep.Failed) > 0 || len(rep.Skipped) > 0 {
		return d, fmt.Errorf("pass %d to %s: %d evolved, %d failed, %d skipped of %d", k, next, len(rep.Evolved), len(rep.Failed), len(rep.Skipped), fleetSize)
	}
	for i, obj := range e.dcdos {
		if v := obj.Version(); !v.Equal(next) {
			return d, fmt.Errorf("pass %d: %s at version %s, want %s", k, e.fleet[i], v, next)
		}
	}
	return d, nil
}

// passEvery paces the manager by the caller: a pass starts once passEvery
// calls have completed since the previous pass started (or at once, if the
// previous pass took longer). Tying passes to calls keeps the manager's
// share of every per-op cost the same from run to run, whatever the
// journal's fsync latency or the host's load.
const passEvery = 1000

// run is the evolve workload's background: paced passes until stop.
func (e *evolveEnv) run(stop <-chan struct{}) error {
	for {
		select {
		case <-stop:
			return nil
		case <-e.kick:
		}
		if e.quiesce != nil {
			e.quiesce.Lock()
		}
		d, err := e.pass(context.Background())
		if e.quiesce != nil {
			e.quiesce.Unlock()
		}
		if err != nil {
			return err
		}
		e.passDur = append(e.passDur, d)
	}
}

func (e *evolveEnv) newCaller(c *caller) { c.bufs = [][]byte{make([]byte, greetArgBytes)} }

func (e *evolveEnv) do(c *caller) (attempted, failed int, err error) {
	op, ctx := c.op()
	loid := e.fleet[c.rng.Intn(len(e.fleet))]
	args := fillArgs(c.bufs[0], op, e.tails[c.rng.Intn(len(e.tails))])
	if e.quiesce != nil {
		e.quiesce.RLock()
	}
	p0 := e.phase.Load()
	start := time.Now()
	out, callErr := e.client.InvokeIdempotent(ctx, loid, "greet", args)
	c.span(kRPC, op, start)
	p1 := e.phase.Load()
	if e.quiesce != nil {
		e.quiesce.RUnlock()
	}
	if e.calls.Add(1)%passEvery == 0 {
		select {
		case e.kick <- struct{}{}:
		default:
		}
	}
	if callErr != nil {
		c.noteFailure(callErr)
		return 1, 1, nil
	}
	if len(out) != 1+len(args) || !bytes.Equal(out[1:], args) {
		return 1, 1, fmt.Errorf("greet %s: reply does not echo the arguments", loid)
	}
	if e.quiesce != nil && (p0 != p1 || p0%2 == 1) {
		return 1, 1, fmt.Errorf("greet %s: call overlapped a pass (phases %d..%d) in spite of quiescing", loid, p0, p1)
	}
	impl := bytes.IndexByte(greetTags[:], out[0])
	if impl < 0 || !allowedIn(impl, p0, p1) {
		return 1, 1, fmt.Errorf("greet %s: answer %q from neither the old nor the new implementation of phases %d..%d", loid, out[0], p0, p1)
	}
	return 1, 0, nil
}

func (e *evolveEnv) check() error {
	for i, obj := range e.dcdos {
		if v := obj.Version(); !v.Equal(e.cur) {
			return fmt.Errorf("%s at version %s, want %s", e.fleet[i], v, e.cur)
		}
	}
	return nil
}

// extra reports the evolve-only metrics of a measured phase.
func (e *evolveEnv) extra(m map[string]float64) error {
	var busy time.Duration
	ms := make([]float64, len(e.passDur))
	for i, d := range e.passDur {
		busy += d
		ms[i] = float64(d) / 1e6
	}
	m["evolve_pass_ms"] = median(ms)
	m["evolve_instances_s"] = ratio(float64(len(e.passDur)*fleetSize), busy.Seconds())
	recs, err := manager.ReadJournal(e.journal.Path())
	if err != nil {
		return err
	}
	m["manager.journal_records_per_pass"] = float64(len(recs)) / float64(e.passes)
	return nil
}

func (e *evolveEnv) probes() probeSet {
	return probeSet{
		disp:       e.nodes[0].Dispatcher(),
		obj:        e.dcdos[0],
		method:     "greet",
		args:       fillArgs(make([]byte, greetArgBytes), 0, e.tails[0]),
		state:      e.dcdos[0].State(),
		journalDir: e.dir,
	}
}

func (e *evolveEnv) close() {
	e.cluster.close()
	if e.journal != nil {
		_ = e.journal.Close()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}
