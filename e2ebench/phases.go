package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"godcdo/internal/manager"
	"godcdo/internal/naming"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/version"
	"godcdo/internal/wire"
)

// counters is a snapshot of the program's own counters on one cluster.
type counters struct {
	client rpc.ClientStats
	dialer transport.DialerStats
	cache  naming.CacheStats
	pool   wire.PoolStats
	shed   uint64
	queued int64
	flight uint64
	// minted sums every obs tracer's span-ID allocator, which advances once
	// per span or trace started.
	minted uint64
	planes int
}

func snapshot(c *cluster) counters {
	s := counters{
		client: c.client.Stats(),
		dialer: c.clientDialer.Stats(),
		cache:  c.cache.Stats(),
		pool:   wire.FramePoolStats(),
	}
	for _, d := range c.dispatchers() {
		ds := d.Stats()
		s.shed += ds.Shed
		s.queued += ds.Queued
	}
	s.planes = len(c.obsPlanes())
	for _, o := range c.obsPlanes() {
		s.flight += o.GetFlight().Stats().Retained
		s.minted += o.Tracer.MintSpanID()
	}
	return s
}

// measure runs the callers on e for length and snapshots the process around it.
func measure(e env, w workload, seed int64, nextOp *atomic.Uint64, t *tracer, length time.Duration) phase {
	runtime.GC()
	cl := e.base()
	ctr0 := snapshot(cl)
	total0, steal0, stealOK := cpuTicks()
	hp := startHeapPeak()
	if t != nil {
		t.on.Store(true)
	}
	p := drive(e, w.callers, seed, nextOp, t, length, 0)
	if t != nil {
		t.on.Store(false)
	}
	p.heapMB = hp.finish()
	if total1, steal1, ok := cpuTicks(); ok && stealOK && total1 > total0 {
		// Time the hypervisor gave other tenants: it explains a slow run.
		fmt.Printf("host cpu steal while measuring: %.1f%%\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	p.ctr0 = ctr0
	p.ctr1 = snapshot(cl)
	return p
}

// verify folds a phase's correctness outcome into r.
func verify(r *result, e env, p *phase) {
	if p.wrong != nil {
		r.fail("wrong answer: %v", p.wrong)
	}
	if p.bgErr != nil {
		r.fail("background: %v", p.bgErr)
	}
	if err := e.check(); err != nil {
		r.fail("end state: %v", err)
	}
	r.attempted += p.attempted
	r.failed += p.failed
	for m, n := range p.failures {
		r.failures[m] += n
	}
}

func newResult() result {
	return result{correct: true, failures: map[string]int{}, metrics: map[string]float64{}}
}

// endToEnd measures the workload in rounds, each on a fresh set-up for
// length/rounds. Every metric is the median over rounds of the round's
// value, and a round's value is the median over its sub-windows: some of the
// run-to-run spread comes with the set-up itself (which connection lands
// on which CPU), so one set-up per run would carry all of it. setup_s is
// the median set-up time.
func endToEnd(w workload, seed int64, length time.Duration) (result, error) {
	var nextOp atomic.Uint64
	r := newResult()
	var setups []float64
	perRound := map[string][]float64{}
	minSamples := -1
	for i := 0; i < rounds; i++ {
		e, d, err := build(w, seed, nil, &nextOp)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		p := measure(e, w, seed+int64(i), &nextOp, nil, length/rounds)
		verify(&r, e, &p)
		m := roundMetrics(&p)
		if x, ok := e.(extraReporter); ok {
			if err := x.extra(m); err != nil {
				e.close()
				return result{}, err
			}
		}
		e.close()
		for k, v := range m {
			perRound[k] = append(perRound[k], v)
		}
		for _, w := range p.windows {
			if minSamples < 0 || len(w.samples) < minSamples {
				minSamples = len(w.samples)
			}
		}
	}
	for k, vs := range perRound {
		r.metrics[k] = median(vs)
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["failed_ratio"] = ratio(float64(r.failed), float64(r.attempted))
	fmt.Printf("latency samples: %d rounds of %d sub-windows, at least %d per sub-window (p99 has %d beyond it)\n",
		rounds, subWindows, minSamples, minSamples/100)
	return r, nil
}

// roundMetrics computes one round's end-to-end metrics. Timings are
// medians over the round's sub-windows; per-op resource costs are totals
// over the whole round, so an evolve sub-window holding one manager pass
// more or less than its neighbour does not move them.
func roundMetrics(p *phase) map[string]float64 {
	m := map[string]float64{}
	m["throughput_ops_s"] = p.median(func(w *window) float64 { return float64(w.ok) / w.dur.Seconds() })
	m["latency_p50_us"] = p.median(func(w *window) float64 { return quantileUs(w.samples, 0.50) })
	m["latency_p90_us"] = p.median(func(w *window) float64 { return quantileUs(w.samples, 0.90) })
	m["latency_p99_us"] = p.median(func(w *window) float64 { return quantileUs(w.samples, 0.99) })
	if n := len(p.windows); n > 0 {
		var ok uint64
		for _, w := range p.windows {
			ok += w.ok
		}
		u0, u1 := p.windows[0].use0, p.windows[n-1].use1
		ops := max(float64(ok), 1)
		m["cpu_us_per_op"] = float64(u1.cpu-u0.cpu) / 1e3 / ops
		m["allocs_per_op"] = float64(u1.mallocs-u0.mallocs) / ops
		m["alloc_bytes_per_op"] = float64(u1.bytes-u0.bytes) / ops
		m["runtime.gc_cycles_per_kop"] = float64(u1.gcs-u0.gcs) / (ops / 1e3)
		m["runtime.gc_pause_us_total"] = float64(u1.pauseNs-u0.pauseNs) / 1e3
	}
	m["heap_peak_mb"] = p.heapMB
	return m
}

// perLayer measures length/2 untraced, for the program's own counters and
// the tracing-overhead baseline, then length/2 on a fresh traced set-up for
// the span-based metrics and the in-process layer timings.
func perLayer(w workload, seed int64, length time.Duration, spanFile string) (result, error) {
	var nextOp atomic.Uint64
	r := newResult()
	m := r.metrics

	ea, _, err := build(w, seed, nil, &nextOp)
	if err != nil {
		return result{}, err
	}
	pa := measure(ea, w, seed, &nextOp, nil, length/2)
	verify(&r, ea, &pa)
	counterMetrics(m, &pa)
	rm := roundMetrics(&pa)
	for _, k := range []string{"throughput_ops_s", "latency_p90_us", "latency_p99_us", "runtime.gc_cycles_per_kop", "runtime.gc_pause_us_total"} {
		m[k] = rm[k]
	}
	if x, ok := ea.(extraReporter); ok {
		if err := x.extra(m); err != nil {
			ea.close()
			return result{}, err
		}
	}
	ea.close()

	t := newTracer()
	eb, _, err := build(w, seed, t, &nextOp)
	if err != nil {
		return result{}, err
	}
	defer eb.close()
	pb := measure(eb, w, seed, &nextOp, t, length/2)
	verify(&r, eb, &pb)
	a := t.analyze()
	spanMetrics(m, t, a, &pb)
	m["trace.overhead_ratio"] = pa.throughput() / pb.throughput()
	if err := probeLayers(m, t, eb.probes()); err != nil {
		return result{}, err
	}
	if spanFile != "" {
		if err := a.write(spanFile); err != nil {
			return result{}, err
		}
		fmt.Printf("spans: %d recorded, first %d written to %s\n", len(a.spans), min(len(a.spans), spanFileLimit), spanFile)
	}
	return r, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics derives the per-layer metrics the program's own counters
// give over an untraced phase.
func counterMetrics(m map[string]float64, p *phase) {
	c0, c1 := &p.ctr0, &p.ctr1
	ops := float64(p.attempted)
	calls := float64(c1.client.Calls - c0.client.Calls)
	sub := float64(c1.client.CallsBatched - c0.client.CallsBatched)
	m["rpc.attempts_per_call"] = ratio(calls+sub+float64(c1.client.Retries-c0.client.Retries), calls+sub)
	m["rpc.rebinds"] = float64(c1.client.Rebinds - c0.client.Rebinds)
	m["rpc.batch_fallbacks_per_subcall"] = ratio(float64(c1.client.BatchFallbacks-c0.client.BatchFallbacks), sub)
	hits := float64(c1.cache.Hits - c0.cache.Hits)
	misses := float64(c1.cache.Misses - c0.cache.Misses)
	m["naming.lookups_per_op"] = ratio(misses, ops)
	m["naming.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["transport.frames_per_flush"] = ratio(float64(c1.dialer.BatchedFrames-c0.dialer.BatchedFrames), float64(c1.dialer.BatchFlushes-c0.dialer.BatchFlushes))
	m["transport.conns_open"] = float64(c1.dialer.OpenConns)
	poolHits := float64(c1.pool.Hits - c0.pool.Hits)
	poolAll := poolHits + float64(c1.pool.Misses-c0.pool.Misses) + float64(c1.pool.Oversize-c0.pool.Oversize)
	m["wire.pool_hit_ratio"] = ratio(poolHits, poolAll)
	m["rpc.dispatch.queued"] = float64(c1.queued)
	m["rpc.dispatch.shed"] = float64(c1.shed - c0.shed)
	// Each snapshot itself advances every tracer's allocator once.
	m["obs.spans_per_op"] = ratio(float64(c1.minted-c0.minted)-float64(c1.planes), ops)
	m["obs.flight_retained"] = float64(c1.flight - c0.flight)
	m["failed_ratio"] = ratio(float64(p.failed), ops)
}

// spanMetrics derives the per-layer metrics of a traced phase.
func spanMetrics(m map[string]float64, t *tracer, a *analysis, p *phase) {
	ops := float64(p.attempted)
	k := &a.kinds
	m["rpc.invoke.self_us"] = k[kRPC].meanSelfUs()
	m["naming.lookup.us"] = ratio(float64(t.lookupNs.Load()), float64(t.lookups.Load())) / 1e3
	m["transport.call.us_p50"] = k[kTransport].p50Us()
	m["transport.calls_per_op"] = ratio(float64(k[kTransport].count), ops)
	m["transport.request_bytes_per_op"] = ratio(float64(t.reqBytes.Load()), ops)
	m["transport.response_bytes_per_op"] = ratio(float64(t.respBytes.Load()), ops)
	m["core.invoke.us"] = k[kCore].meanUs()
	m["core.apply.us"] = k[kCoreApply].meanUs()
	applies := float64(t.applies.Load())
	m["core.entries_retuned_per_apply"] = ratio(float64(t.retuned.Load()), applies)
	m["core.components_added_per_apply"] = ratio(float64(t.added.Load()), applies)
	ships := float64(t.ships.Load())
	m["replica.ship.us"] = k[kShip].meanUs()
	m["replica.ships_per_write"] = ratio(ships, p.okOps())
	m["replica.image_bytes_per_ship"] = ratio(float64(t.shipBytes.Load()), ships)
	m["replica.inner.us"] = k[kReplInner].meanUs()
	m["manager.pass.ms"] = k[kMgrPass].meanUs() / 1e3
	m["manager.apply.us"] = k[kMgrApply].meanUs()
	m["component.fetch.us"] = k[kFetch].meanUs()
	m["component.fetches_per_apply"] = ratio(float64(t.fetches.Load()), applies)
	for i := spanKind(0); i < nKinds; i++ {
		if k[i].count > 0 {
			fmt.Printf("span %-16s n=%-8d mean %9.2fus self %9.2fus\n", kindNames[i], k[i].count, k[i].meanUs(), k[i].meanSelfUs())
		}
	}
}

// probeWindow is how long each in-process layer timing loops.
const probeWindow = 50 * time.Millisecond

// timeLoop calls fn repeatedly for at least probeWindow and returns the mean
// nanoseconds per call.
func timeLoop(fn func()) float64 {
	n := 0
	start := time.Now()
	for {
		fn()
		n++
		if n%16 == 0 && time.Since(start) >= probeWindow {
			return float64(time.Since(start).Nanoseconds()) / float64(n)
		}
	}
}

// probeLayers times single layers in-process: wire encode/decode and
// Dispatcher.Handle on envelopes captured from the traced run, the DFM call
// path, objstate encoding, and (evolve) a journal append on a side journal
// in the manager's journal directory.
func probeLayers(m map[string]float64, t *tracer, ps probeSet) error {
	t.capMu.Lock()
	raws := append(append([][]byte(nil), t.capReq...), t.capResp...)
	reqRaws := append([][]byte(nil), t.capReq...)
	t.capMu.Unlock()
	if len(raws) > 0 {
		decoded := make([]*wire.Envelope, len(raws))
		for i, raw := range raws {
			ev, err := wire.DecodeEnvelope(raw)
			if err != nil {
				return fmt.Errorf("decode captured envelope: %w", err)
			}
			decoded[i] = ev
		}
		i := 0
		m["wire.decode_ns"] = timeLoop(func() {
			_, _ = wire.DecodeEnvelope(raws[i%len(raws)])
			i++
		})
		m["wire.encode_ns"] = timeLoop(func() {
			wire.PutBuf(decoded[i%len(decoded)].EncodePooled())
			i++
		})
	}
	if len(reqRaws) > 0 {
		reqs := make([]*wire.Envelope, len(reqRaws))
		for i, raw := range reqRaws {
			ev, err := wire.DecodeEnvelope(raw)
			if err != nil {
				return fmt.Errorf("decode captured request: %w", err)
			}
			// The captured deadline has passed; without one the request
			// takes the dispatch path it took live.
			ev.Deadline = 0
			reqs[i] = ev
		}
		ctx := context.Background()
		i := 0
		m["rpc.dispatch.us"] = timeLoop(func() {
			wire.PutEnvelope(ps.disp.Handle(ctx, reqs[i%len(reqs)]))
			i++
		}) / 1e3
	}
	m["dfm.call_ns"] = timeLoop(func() { _, _ = ps.obj.InvokeMethod(ps.method, ps.args) })
	m["objstate.encode_us"] = timeLoop(func() { _ = ps.state.Encode() }) / 1e3
	if ps.journalDir != "" {
		us, err := journalAppendUs(ps.journalDir)
		if err != nil {
			return err
		}
		m["manager.journal.append_us"] = us
	}
	return nil
}

// journalAppendUs times fsynced Journal.Append calls of one intent record on
// a side journal beside the manager's.
func journalAppendUs(dir string) (float64, error) {
	path := filepath.Join(dir, "side.journal")
	j, err := manager.OpenJournal(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	rec := manager.JournalRecord{Op: manager.OpIntent, Pass: 1, LOID: naming.LOID{Domain: 5, Class: 1, Instance: 1}, From: version.ID{1}, To: version.ID{1, 1}}
	const appends = 64
	start := time.Now()
	for i := 0; i < appends; i++ {
		if err := j.Append(rec); err != nil {
			_ = j.Close()
			return 0, err
		}
	}
	us := float64(time.Since(start).Nanoseconds()) / appends / 1e3
	if err := j.Close(); err != nil {
		return 0, err
	}
	return us, nil
}
