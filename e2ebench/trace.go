package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/manager"
	"godcdo/internal/naming"
	"godcdo/internal/objstate"
	"godcdo/internal/obs"
	"godcdo/internal/replica"
	"godcdo/internal/transport"
	"godcdo/internal/version"
	"godcdo/internal/wire"
)

// The traced run wraps the program's public interface seams — the client's
// transport.Dialer and naming.Resolver, hosted rpc.Objects, replica.Inner,
// the replica's ship Dialer, manager.Instance and component.Fetcher — and
// records one span per call into each. Nothing inside the program changes.
// Spans of one op share its op id: client-side wrappers read it from the
// context, server-side wrappers from the first 8 bytes of the request
// payload, and evolution passes from the tracer's current pass id.

type spanKind uint8

const (
	kRPC spanKind = iota
	kTransport
	kCore
	kCoreApply
	kReplInvoke
	kReplInner
	kShip
	kMgrPass
	kMgrApply
	kFetch
	nKinds
)

var kindNames = [nKinds]string{
	kRPC:        "rpc.invoke",
	kTransport:  "transport.call",
	kCore:       "core.invoke",
	kCoreApply:  "core.apply",
	kReplInvoke: "replica.invoke",
	kReplInner:  "replica.inner",
	kShip:       "replica.ship",
	kMgrPass:    "manager.pass",
	kMgrApply:   "manager.apply",
	kFetch:      "component.fetch",
}

type span struct {
	op         uint64
	start, end int64 // ns since the tracer's base time
	kind       spanKind
}

const (
	spanShards = 16
	// maxSpans bounds the in-memory span store. Ops issued after the cap is
	// reached are left out of the analysis entirely, so no op is half traced.
	maxSpans = 1 << 21
	// maxCaptured is how many request and response envelopes the transport
	// wrapper keeps for the in-process wire and dispatch timings.
	maxCaptured = 64
	// spanFileLimit bounds the spans written out at the end of a run.
	spanFileLimit = 50000
)

type spanShard struct {
	mu    sync.Mutex
	spans []span
	_     [32]byte // keep shards on separate cache lines
}

// tracer keeps spans in memory while on, plus the counters the wrappers
// maintain at the same boundaries.
type tracer struct {
	base   time.Time
	on     atomic.Bool
	passOp atomic.Uint64 // op id of the evolution pass in progress
	passes atomic.Uint64
	total  atomic.Int64
	opCap  atomic.Uint64 // ops at or above this id are not analysed
	shards [spanShards]spanShard

	lookups, lookupNs   atomic.Uint64
	reqBytes, respBytes atomic.Uint64
	applies             atomic.Uint64
	retuned, added      atomic.Uint64
	ships, shipBytes    atomic.Uint64
	fetches             atomic.Uint64

	capMu   sync.Mutex
	capReq  [][]byte
	capResp [][]byte
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.opCap.Store(^uint64(0))
	return t
}

func (t *tracer) record(k spanKind, op uint64, start time.Time) {
	end := time.Now()
	if op >= t.opCap.Load() {
		return
	}
	if t.total.Add(1) > maxSpans {
		t.opCap.CompareAndSwap(^uint64(0), op)
		return
	}
	sh := &t.shards[op%spanShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, span{op: op, start: start.Sub(t.base).Nanoseconds(), end: end.Sub(t.base).Nanoseconds(), kind: k})
	sh.mu.Unlock()
}

// passOpBase keeps evolution-pass op ids clear of caller op ids.
const passOpBase = 1 << 62

// newPassOp allocates the op id of the next evolution pass and makes it the
// one server-side apply and fetch spans join.
func (t *tracer) newPassOp() uint64 {
	op := passOpBase + t.passes.Add(1)
	t.passOp.Store(op)
	return op
}

type opKey struct{}

func withOp(ctx context.Context, op uint64) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

func opFrom(ctx context.Context) uint64 {
	op, _ := ctx.Value(opKey{}).(uint64)
	return op
}

// opOf reads the op id every workload writes into the first 8 bytes of a
// request payload.
func opOf(args []byte) uint64 {
	if len(args) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(args)
}

var encBufs = sync.Pool{New: func() any { b := make([]byte, 0, 8192); return &b }}

// encodedLen is the exact encoded size of ev on the wire.
func encodedLen(ev *wire.Envelope) int {
	bp := encBufs.Get().(*[]byte)
	b := ev.AppendEncode((*bp)[:0])
	n := len(b)
	*bp = b[:0]
	encBufs.Put(bp)
	return n
}

// --- Wrappers ---------------------------------------------------------------

// tracedDialer wraps the client's transport (kind kTransport) or a replica's
// ship dialer (kind kShip).
type tracedDialer struct {
	t    *tracer
	d    transport.Dialer
	kind spanKind
}

func (w *tracedDialer) Call(ctx context.Context, endpoint string, req *wire.Envelope, timeout time.Duration) (*wire.Envelope, error) {
	if !w.t.on.Load() {
		return w.d.Call(ctx, endpoint, req, timeout)
	}
	op := opFrom(ctx)
	var reqLen int
	if w.kind == kTransport {
		reqLen = encodedLen(req)
		w.t.capture(&w.t.capReq, req)
	}
	start := time.Now()
	resp, err := w.d.Call(ctx, endpoint, req, timeout)
	w.t.record(w.kind, op, start)
	switch w.kind {
	case kTransport:
		w.t.reqBytes.Add(uint64(reqLen))
		if resp != nil {
			w.t.respBytes.Add(uint64(encodedLen(resp)))
			w.t.capture(&w.t.capResp, resp)
		}
	case kShip:
		if req.Method == replica.MethodApply {
			w.t.ships.Add(1)
			w.t.shipBytes.Add(uint64(len(req.Payload)))
		}
	}
	return resp, err
}

func (w *tracedDialer) Close() error { return w.d.Close() }

func (t *tracer) capture(dst *[][]byte, ev *wire.Envelope) {
	t.capMu.Lock()
	if len(*dst) < maxCaptured {
		*dst = append(*dst, ev.Encode())
	}
	t.capMu.Unlock()
}

// tracedResolver times every binding lookup the client's naming cache makes
// (misses only: hits never reach the resolver).
type tracedResolver struct {
	t *tracer
	r naming.Resolver
}

func (w tracedResolver) Lookup(loid naming.LOID) (naming.Binding, error) {
	start := time.Now()
	b, err := w.r.Lookup(loid)
	w.t.lookupNs.Add(uint64(time.Since(start)))
	w.t.lookups.Add(1)
	return b, err
}

// tracedObject wraps a hosted DCDO. It offers every optional interface the
// DCDO does, so the dispatcher takes the same path it takes unwrapped.
type tracedObject struct {
	t   *tracer
	obj *core.DCDO
}

func (w *tracedObject) InvokeMethod(method string, args []byte) ([]byte, error) {
	return w.InvokeMethodCtx(context.Background(), method, args)
}

func (w *tracedObject) InvokeMethodCtx(ctx context.Context, method string, args []byte) ([]byte, error) {
	start := time.Now()
	out, err := w.obj.InvokeMethodCtx(ctx, method, args)
	w.after(method, args, out, err, start)
	return out, err
}

func (w *tracedObject) InvokeMethodTraced(ctx context.Context, parent obs.SpanContext, method string, args []byte) ([]byte, error) {
	start := time.Now()
	out, err := w.obj.InvokeMethodTraced(ctx, parent, method, args)
	w.after(method, args, out, err, start)
	return out, err
}

func (w *tracedObject) SetObs(o *obs.Obs) { w.obj.SetObs(o) }

func (w *tracedObject) after(method string, args, out []byte, err error, start time.Time) {
	if !w.t.on.Load() {
		return
	}
	if method == core.MethodApplyDescriptor {
		w.t.record(kCoreApply, w.t.passOp.Load(), start)
		if err == nil {
			if rep, derr := core.DecodeApplyReport(out); derr == nil {
				w.t.applies.Add(1)
				w.t.retuned.Add(uint64(rep.EntriesRetuned))
				w.t.added.Add(uint64(rep.ComponentsAdded))
			}
		}
		return
	}
	if strings.HasPrefix(method, core.ControlPrefix) {
		return
	}
	w.t.record(kCore, opOf(args), start)
}

// tracedReplica wraps a hosted replica so the op id of a dynamic call
// reaches the replica's Inner and ship dialer through the context.
type tracedReplica struct {
	t   *tracer
	rep *replica.Replica
}

func (w *tracedReplica) InvokeMethod(method string, args []byte) ([]byte, error) {
	return w.InvokeMethodCtx(context.Background(), method, args)
}

func (w *tracedReplica) InvokeMethodCtx(ctx context.Context, method string, args []byte) ([]byte, error) {
	if !w.t.on.Load() || strings.HasPrefix(method, replica.ReplPrefix) || strings.HasPrefix(method, core.ControlPrefix) {
		return w.rep.InvokeMethodCtx(ctx, method, args)
	}
	op := opOf(args)
	start := time.Now()
	out, err := w.rep.InvokeMethodCtx(withOp(ctx, op), method, args)
	w.t.record(kReplInvoke, op, start)
	return out, err
}

// tracedInner wraps the object a replica executes dynamic calls on.
type tracedInner struct {
	t  *tracer
	in replica.Inner
}

func (w tracedInner) InvokeMethodCtx(ctx context.Context, method string, args []byte) ([]byte, error) {
	start := time.Now()
	out, err := w.in.InvokeMethodCtx(ctx, method, args)
	if w.t.on.Load() && !strings.HasPrefix(method, core.ControlPrefix) {
		w.t.record(kReplInner, opFrom(ctx), start)
	}
	return out, err
}

func (w tracedInner) State() *objstate.State { return w.in.State() }

// tracedInstance wraps the manager's view of one fleet member.
type tracedInstance struct {
	manager.Instance
	t *tracer
}

func (w tracedInstance) Apply(ctx context.Context, target *dfm.Descriptor, v version.ID) (core.ApplyReport, error) {
	start := time.Now()
	rep, err := w.Instance.Apply(ctx, target, v)
	if w.t.on.Load() {
		w.t.record(kMgrApply, w.t.passOp.Load(), start)
	}
	return rep, err
}

// tracedFetcher wraps the component fetcher every fleet DCDO evolves with.
type tracedFetcher struct {
	t *tracer
	f component.Fetcher
}

func (w tracedFetcher) Fetch(ctx context.Context, ico naming.LOID) (*component.Component, error) {
	start := time.Now()
	c, err := w.f.Fetch(ctx, ico)
	if w.t.on.Load() {
		w.t.fetches.Add(1)
		w.t.record(kFetch, w.t.passOp.Load(), start)
	}
	return c, err
}

// --- Analysis ---------------------------------------------------------------

// kindStats aggregates the spans of one kind.
type kindStats struct {
	count   int
	totalNs int64
	selfNs  int64
	durs    []int64
}

func (k *kindStats) meanUs() float64 {
	if k.count == 0 {
		return 0
	}
	return float64(k.totalNs) / float64(k.count) / 1e3
}

func (k *kindStats) meanSelfUs() float64 {
	if k.count == 0 {
		return 0
	}
	return float64(k.selfNs) / float64(k.count) / 1e3
}

func (k *kindStats) p50Us() float64 {
	if len(k.durs) == 0 {
		return 0
	}
	s := append([]int64(nil), k.durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[(len(s)-1)/2]) / 1e3
}

// analysis is the per-kind summary of one traced phase.
type analysis struct {
	kinds [nKinds]kindStats
	spans []span // sorted by op, then start
	// parent[i] is the index in spans of span i's parent, -1 for roots.
	parent []int
}

// analyze builds each op's span tree by interval containment — a span's
// parent is the innermost span of the same op that encloses it — and
// computes self times: a span's duration minus the part of it its direct
// children cover. Every wrapper runs in one process, so client and server
// spans share a monotonic clock.
func (t *tracer) analyze() *analysis {
	a := &analysis{}
	limit := t.opCap.Load()
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, s := range sh.spans {
			if s.op < limit {
				a.spans = append(a.spans, s)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(a.spans, func(i, j int) bool {
		si, sj := a.spans[i], a.spans[j]
		if si.op != sj.op {
			return si.op < sj.op
		}
		if si.start != sj.start {
			return si.start < sj.start
		}
		return si.end > sj.end
	})
	a.parent = make([]int, len(a.spans))
	cover := make([]int64, len(a.spans))
	lastChildEnd := make([]int64, len(a.spans))
	var stack []int
	for i, s := range a.spans {
		if i == 0 || a.spans[i-1].op != s.op {
			stack = stack[:0]
		}
		for len(stack) > 0 && a.spans[stack[len(stack)-1]].end < s.end {
			stack = stack[:len(stack)-1]
		}
		a.parent[i] = -1
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			a.parent[i] = p
			from := s.start
			if lastChildEnd[p] > from {
				from = lastChildEnd[p]
			}
			if s.end > from {
				cover[p] += s.end - from
				lastChildEnd[p] = s.end
			}
		}
		stack = append(stack, i)
	}
	for i, s := range a.spans {
		k := &a.kinds[s.kind]
		d := s.end - s.start
		k.count++
		k.totalNs += d
		k.selfNs += d - cover[i]
		if s.kind == kTransport {
			k.durs = append(k.durs, d)
		}
	}
	return a
}

// write saves up to spanFileLimit spans as JSON lines.
func (a *analysis) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type rec struct {
		ID      int    `json:"id"`
		Parent  int    `json:"parent"`
		Op      uint64 `json:"op"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	enc := json.NewEncoder(w)
	for i, s := range a.spans {
		if i == spanFileLimit {
			break
		}
		if err := enc.Encode(rec{ID: i, Parent: a.parent[i], Op: s.op, Name: kindNames[s.kind], StartNs: s.start, EndNs: s.end}); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close span file: %w", err)
	}
	return nil
}
