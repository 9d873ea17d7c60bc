package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godcdo/internal/wire"
)

// TestTCPPooledFrameConcurrentReuse hammers the pooled read/encode path with
// concurrent callers and payloads spanning multiple pool size classes. Run
// under -race this catches a frame released while its bytes are still
// aliased; the content checks catch reuse corruption that -race cannot see.
func TestTCPPooledFrameConcurrentReuse(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	d.Stripes = 2
	defer d.Close()

	sizes := []int{0, 7, 300, 600, 5000, 70000}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				size := sizes[(g+i)%len(sizes)]
				payload := bytes.Repeat([]byte{byte(g*31 + i)}, size)
				resp, err := d.Call(context.Background(), srv.Endpoint(),
					&wire.Envelope{Kind: wire.KindRequest, Payload: payload}, 5*time.Second)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp.Payload, payload) {
					errs <- fmt.Errorf("goroutine %d call %d: payload corrupted (%d bytes vs %d)",
						g, i, len(resp.Payload), len(payload))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTCPStripedDialerOpensStripes verifies concurrent calls spread over the
// configured stripe count — no more, no fewer once warm.
func TestTCPStripedDialerOpensStripes(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	d.Stripes = 4
	defer d.Close()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.Call(context.Background(), srv.Endpoint(),
				&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("x")}, 5*time.Second); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := d.Stats()
	if st.OpenConns != 4 {
		t.Fatalf("OpenConns = %d, want 4 (one per stripe)", st.OpenConns)
	}
	if st.Dials < 4 {
		// Concurrent callers may race extra dials whose losers are discarded;
		// at least one dial per stripe must have happened.
		t.Fatalf("Dials = %d, want >= 4", st.Dials)
	}
	d.mu.Lock()
	nEndpoints := len(d.conns)
	d.mu.Unlock()
	if nEndpoints != 1 {
		t.Fatalf("endpoint entries = %d, want 1 (stripes share one entry)", nEndpoints)
	}
}

// TestTCPStripeFailover kills one stripe's connection and verifies the
// endpoint keeps serving: surviving stripes carry calls and the dead stripe
// is redialed lazily, with no error surfacing to later callers.
func TestTCPStripeFailover(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	d.Stripes = 2
	defer d.Close()

	// Warm both stripes.
	for i := 0; i < 2; i++ {
		if _, err := d.Call(context.Background(), srv.Endpoint(),
			&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("warm")}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats(); st.OpenConns != 2 {
		t.Fatalf("OpenConns = %d, want 2 after warmup", st.OpenConns)
	}

	// Kill one stripe out from under the dialer.
	d.mu.Lock()
	var victim *tcpClientConn
	for _, ep := range d.conns {
		for _, cc := range ep.stripes {
			if cc != nil {
				victim = cc
				break
			}
		}
	}
	d.mu.Unlock()
	if victim == nil {
		t.Fatal("no live stripe to kill")
	}
	_ = victim.conn.Close()

	// Wait for the read loop to notice and drop the stripe.
	deadline := time.Now().Add(2 * time.Second)
	for d.Stats().OpenConns != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("dead stripe never dropped: OpenConns = %d", d.Stats().OpenConns)
		}
		time.Sleep(time.Millisecond)
	}

	// Every later call succeeds: the survivor carries its share and the dead
	// stripe redials on first use.
	for i := 0; i < 8; i++ {
		if _, err := d.Call(context.Background(), srv.Endpoint(),
			&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("after")}, 5*time.Second); err != nil {
			t.Fatalf("call %d after stripe death: %v", i, err)
		}
	}
	if st := d.Stats(); st.OpenConns != 2 || st.Dials != 3 {
		t.Fatalf("OpenConns = %d Dials = %d, want 2 and 3 (one redial)", st.OpenConns, st.Dials)
	}
}

// TestTCPCoalescingCountsBatches verifies the batch counters on both sides:
// every frame is accounted and flushes never exceed frames.
func TestTCPCoalescingCountsBatches(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	defer d.Close()

	const calls = 64
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.Call(context.Background(), srv.Endpoint(),
				&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("b")}, 5*time.Second); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	ds := d.Stats()
	if ds.BatchedFrames != calls {
		t.Fatalf("dialer BatchedFrames = %d, want %d", ds.BatchedFrames, calls)
	}
	if ds.BatchFlushes == 0 || ds.BatchFlushes > ds.BatchedFrames {
		t.Fatalf("dialer BatchFlushes = %d out of range (frames %d)", ds.BatchFlushes, ds.BatchedFrames)
	}
	// The server counts a batch once its write returns, which can be after
	// the client has already read the responses: wait for the count to land.
	ss := srv.Stats()
	for deadline := time.Now().Add(2 * time.Second); ss.BatchedFrames < calls && time.Now().Before(deadline); ss = srv.Stats() {
		time.Sleep(time.Millisecond)
	}
	if ss.BatchedFrames != calls {
		t.Fatalf("server BatchedFrames = %d, want %d", ss.BatchedFrames, calls)
	}
	if ss.BatchFlushes == 0 || ss.BatchFlushes > ss.BatchedFrames {
		t.Fatalf("server BatchFlushes = %d out of range (frames %d)", ss.BatchFlushes, ss.BatchedFrames)
	}
}

// TestTCPServerWorkerPoolBounds verifies MaxWorkers caps handler concurrency
// while every pipelined call still completes.
func TestTCPServerWorkerPoolBounds(t *testing.T) {
	var cur, peak atomic.Int64
	handler := HandlerFunc(func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return &wire.Envelope{Kind: wire.KindResponse, Payload: req.Payload}
	})
	srv, err := ListenTCPOptions("127.0.0.1:0", handler, TCPServerOptions{MaxWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	d.Stripes = 4 // several read loops competing for the shared worker pool
	defer d.Close()

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.Call(context.Background(), srv.Endpoint(),
				&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("w")}, 10*time.Second); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("handler concurrency peaked at %d, want <= 2 (MaxWorkers)", p)
	}
}

// TestTCPLegacyModeRoundTrip pins the DisableFastPath escape hatch: calls
// work end to end and neither side's coalescer runs.
func TestTCPLegacyModeRoundTrip(t *testing.T) {
	srv, err := ListenTCPOptions("127.0.0.1:0", echoHandler(), TCPServerOptions{DisableFastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	d.DisableFastPath = true
	defer d.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("legacy-%d", i))
			resp, err := d.Call(context.Background(), srv.Endpoint(),
				&wire.Envelope{Kind: wire.KindRequest, Payload: payload}, 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(resp.Payload, payload) {
				t.Errorf("payload mismatch: %q", resp.Payload)
			}
		}(i)
	}
	wg.Wait()
	if ds := d.Stats(); ds.BatchFlushes != 0 || ds.BatchedFrames != 0 {
		t.Fatalf("legacy dialer used the coalescer: %+v", ds)
	}
	if ss := srv.Stats(); ss.BatchFlushes != 0 || ss.BatchedFrames != 0 {
		t.Fatalf("legacy server used the coalescer: %+v", ss)
	}
}

// TestTCPNilHandlerResponseFastPath pins the nil-response error envelope
// through the coalescing writer: the client must get a real CodeInternal
// error, not a hang or connection drop.
func TestTCPNilHandlerResponseFastPath(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", HandlerFunc(func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	defer d.Close()

	resp, err := d.Call(context.Background(), srv.Endpoint(),
		&wire.Envelope{Kind: wire.KindRequest, Method: "m"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.KindError || resp.Code != wire.CodeInternal {
		t.Fatalf("resp = %+v, want KindError/CodeInternal", resp)
	}
}

// gatedSink is an io.Writer that blocks the first Write of every batch until
// released, then either fails it or accepts the batch — the scaffolding for
// deterministic batch tests. A plain io.Writer has no vectored write, so the
// frame writer's one net.Buffers write per batch reaches it as one Write per
// header and per frame; the sink groups those Writes into batches by the
// writer's flush counter, which advances only after a batch's write returns.
// Only the combiner (holding the writer's lock) calls Write.
type gatedSink struct {
	flushes *atomic.Uint64
	entered chan struct{} // signalled when a batch's first Write starts blocking
	release chan error    // what the blocked Write returns
	batches [][]byte      // the bytes of each accepted batch, in order
	batch   uint64        // flush count when the current batch started
}

func newGatedSink(flushes *atomic.Uint64) *gatedSink {
	return &gatedSink{flushes: flushes, entered: make(chan struct{}, 8), release: make(chan error, 8)}
}

func (g *gatedSink) Write(p []byte) (int, error) {
	if n := g.flushes.Load(); len(g.batches) == 0 || n != g.batch {
		g.entered <- struct{}{}
		if err := <-g.release; err != nil {
			return 0, err
		}
		g.batch = n
		g.batches = append(g.batches, nil)
	}
	last := &g.batches[len(g.batches)-1]
	*last = append(*last, p...)
	return len(p), nil
}

// framed returns payload as it appears on the wire: header, then payload.
func framed(payload []byte) []byte {
	return append(wire.AppendFrameHeader(nil, len(payload)), payload...)
}

// TestFrameWriterCoalescesWhileBlocked pins the batching mechanism: frames
// that arrive while a batch write is in flight go out together in the next
// batch write.
func TestFrameWriterCoalescesWhileBlocked(t *testing.T) {
	var flushes, frames atomic.Uint64
	sink := newGatedSink(&flushes)
	w := newFrameWriter(sink, 16, &flushes, &frames, nil, nil)

	enc := func(s string) []byte { b := wire.GetBuf(len(s)); copy(b, s); return b }
	// The first enqueuer becomes the combiner and blocks inside the gated
	// write, so it runs on its own goroutine.
	first := make(chan error, 1)
	go func() { first <- w.Enqueue(outFrame{buf: enc("first")}) }()
	<-sink.entered // the write of batch 1 is now blocked in the sink
	// These lose the combine lock to the blocked writer and return at once;
	// its post-write recheck picks both up as one batch.
	if err := w.Enqueue(outFrame{buf: enc("second")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Enqueue(outFrame{buf: enc("third")}); err != nil {
		t.Fatal(err)
	}
	sink.release <- nil // batch 1 completes
	<-sink.entered      // batch 2 (second+third together) reaches the sink
	sink.release <- nil
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	w.Stop()

	if got := flushes.Load(); got != 2 {
		t.Fatalf("flushes = %d, want 2", got)
	}
	if got := frames.Load(); got != 3 {
		t.Fatalf("frames = %d, want 3", got)
	}
	if len(sink.batches) != 2 {
		t.Fatalf("sink saw %d batches, want 2", len(sink.batches))
	}
	if want := framed([]byte("first")); !bytes.Equal(sink.batches[0], want) {
		t.Fatalf("first batch = %q, want %q", sink.batches[0], want)
	}
	if want := append(framed([]byte("second")), framed([]byte("third"))...); !bytes.Equal(sink.batches[1], want) {
		t.Fatalf("second batch = %q, want the coalesced frames %q", sink.batches[1], want)
	}
}

// TestFrameWriterFailsQueuedFramesSafe pins the failure-attribution split:
// frames queued behind a write error are reported never-written (the callers
// can retry safely), while the frame being written is left to the ambiguous
// connection-death path.
func TestFrameWriterFailsQueuedFramesSafe(t *testing.T) {
	var flushes, frames atomic.Uint64
	sink := newGatedSink(&flushes)
	var mu sync.Mutex
	var failed []uint64
	var diedErr error
	w := newFrameWriter(sink, 16, &flushes, &frames,
		func(err error) {
			mu.Lock()
			diedErr = err
			mu.Unlock()
		},
		func(id uint64, err error) {
			mu.Lock()
			failed = append(failed, id)
			mu.Unlock()
		})

	enc := func(s string) []byte { b := wire.GetBuf(len(s)); copy(b, s); return b }
	first := make(chan error, 1)
	go func() { first <- w.Enqueue(outFrame{buf: enc("doomed"), id: 1}) }()
	<-sink.entered // frame 1's write is in flight, its enqueuer combining
	if err := w.Enqueue(outFrame{buf: enc("queued-a"), id: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Enqueue(outFrame{buf: enc("queued-b"), id: 3}); err != nil {
		t.Fatal(err)
	}
	sink.release <- errors.New("wire cut") // frame 1's write fails
	if err := <-first; err != nil {
		// Frame 1 entered the queue before the death, so its Enqueue reports
		// success; the failure reaches its caller through the ambiguous
		// connection-death path instead.
		t.Fatalf("doomed enqueue = %v, want nil (failure is attributed via conn death)", err)
	}
	w.Stop()

	mu.Lock()
	defer mu.Unlock()
	if diedErr == nil {
		t.Fatal("onDead never fired")
	}
	if len(failed) != 2 || failed[0] != 2 || failed[1] != 3 {
		t.Fatalf("never-written ids = %v, want [2 3] (frame 1 is ambiguous, not safe)", failed)
	}
	if got := flushes.Load(); got != 0 {
		t.Fatalf("flushes = %d, want 0 (the only batch write failed)", got)
	}
	if err := w.Enqueue(outFrame{buf: enc("late"), id: 4}); !errors.Is(err, errWriterClosed) {
		t.Fatalf("enqueue after death = %v, want errWriterClosed", err)
	}
}

// TestFrameWriterRejectsOversizeFrame pins ErrFrameTooLarge on the gathered
// write path: a frame over wire.MaxFrameSize kills the writer with that
// error before anything of its batch is written, and frames queued behind it
// fail safe.
func TestFrameWriterRejectsOversizeFrame(t *testing.T) {
	var flushes, frames atomic.Uint64
	sink := newGatedSink(&flushes)
	var diedErr error
	var failed []uint64
	w := newFrameWriter(sink, 16, &flushes, &frames,
		func(err error) { diedErr = err },
		func(id uint64, err error) { failed = append(failed, id) })
	w.ch <- outFrame{buf: []byte("small"), id: 1}
	w.ch <- outFrame{buf: make([]byte, wire.MaxFrameSize+1), id: 2}
	w.ch <- outFrame{buf: []byte("after"), id: 3}
	w.pump()
	if !errors.Is(diedErr, wire.ErrFrameTooLarge) {
		t.Fatalf("onDead error = %v, want ErrFrameTooLarge", diedErr)
	}
	if len(sink.batches) != 0 || flushes.Load() != 0 {
		t.Fatalf("oversize batch reached the sink: %d batches, %d flushes", len(sink.batches), flushes.Load())
	}
	if len(failed) != 1 || failed[0] != 3 {
		t.Fatalf("never-written ids = %v, want [3]", failed)
	}
}

// vecConn is a loopback TCP connection that counts plain Writes. Embedding
// *net.TCPConn keeps its vectored-write path visible to net.Buffers, so a
// batch that leaves as one writev never reaches the counting Write.
type vecConn struct {
	*net.TCPConn
	writes atomic.Int64
}

func (c *vecConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.TCPConn.Write(p)
}

// TestFrameWriterVectoredTCP sends a frame larger than a 4 KiB write buffer,
// then a 3-frame batch, over loopback TCP: both must reach the peer
// byte-exact, each batch as one vectored write.
func TestFrameWriterVectoredTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	peer, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	defer peer.Close()

	conn := &vecConn{TCPConn: raw.(*net.TCPConn)}
	var flushes, frames atomic.Uint64
	w := newFrameWriter(conn, 16, &flushes, &frames, nil, nil)
	pooled := func(size int, fill byte) ([]byte, []byte) {
		b := wire.GetBuf(size)
		for i := range b {
			b[i] = fill + byte(i*7)
		}
		return b, framed(b)
	}

	var want []byte
	big, bigWire := pooled(4142, 1)
	want = append(want, bigWire...)
	if err := w.Enqueue(outFrame{buf: big}); err != nil {
		t.Fatal(err)
	}
	if flushes.Load() != 1 || frames.Load() != 1 {
		t.Fatalf("after the 4142-byte frame: flushes = %d frames = %d, want 1 and 1", flushes.Load(), frames.Load())
	}
	// Queue three frames before pumping so one combine gathers all of them.
	for i, size := range []int{1, 4142, 70000} {
		b, onWire := pooled(size, byte(10*i))
		want = append(want, onWire...)
		w.ch <- outFrame{buf: b}
	}
	w.pump()
	if flushes.Load() != 2 || frames.Load() != 4 {
		t.Fatalf("after the 3-frame batch: flushes = %d frames = %d, want 2 and 4", flushes.Load(), frames.Load())
	}
	if n := conn.writes.Load(); n != 0 {
		t.Fatalf("%d plain Writes reached the conn, want 0 (each batch is one vectored write)", n)
	}

	got := make([]byte, len(want))
	_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("peer received bytes that differ from the frames written")
	}
	w.Stop()
}

// TestTCPStripePickSkipsDeadConn pins the stripe-selection fix: a stripe
// whose connection is marked dead (the window between a writer error and its
// removal from the slot) must be skipped while a live alternative exists,
// instead of being handed out to fail the call.
func TestTCPStripePickSkipsDeadConn(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	d.Stripes = 2
	defer d.Close()

	// Warm both stripes (the rr cursor dials a fresh slot per call).
	for i := 0; i < 2; i++ {
		if _, err := d.Call(context.Background(), srv.Endpoint(),
			&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("warm")}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	_, addr, err := ParseEndpoint(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	ep := d.conns[srv.Endpoint()]
	d.mu.Unlock()
	if ep == nil || len(ep.stripes) != 2 || ep.stripes[0] == nil || ep.stripes[1] == nil {
		t.Fatalf("expected 2 warm stripes, got %+v", ep)
	}
	dead, live := ep.stripes[0], ep.stripes[1]
	dead.deadFlag.Store(true)

	// Every pick — wherever the rr cursor lands — must return the live conn.
	for i := 0; i < 8; i++ {
		cc, err := d.getConn(srv.Endpoint(), addr)
		if err != nil {
			t.Fatalf("getConn: %v", err)
		}
		if cc == dead {
			t.Fatalf("pick %d returned the dead stripe", i)
		}
		if cc != live {
			t.Fatalf("pick %d returned an unexpected conn", i)
		}
	}
	// And real calls keep flowing through the survivor.
	if _, err := d.Call(context.Background(), srv.Endpoint(),
		&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("after")}, 5*time.Second); err != nil {
		t.Fatalf("call after dead-stripe skip: %v", err)
	}
}

// TestTCPAdaptiveStripesGrowWithLoad verifies AdaptiveStripes behaviour:
// sequential traffic keeps a single connection, and sustained in-flight load
// above the threshold grows the stripe set toward the Stripes ceiling.
func TestTCPAdaptiveStripesGrowWithLoad(t *testing.T) {
	release := make(chan struct{})
	handler := HandlerFunc(func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
		if req.Method == "block" {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return &wire.Envelope{Kind: wire.KindResponse, Payload: req.Payload}
	})
	srv, err := ListenTCP("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	d.AdaptiveStripes = true
	d.Stripes = 4
	d.StripeLoadThreshold = 2
	defer d.Close()

	// Light sequential traffic: one socket is enough, none of the ceiling
	// is dialed.
	for i := 0; i < 8; i++ {
		if _, err := d.Call(context.Background(), srv.Endpoint(),
			&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("seq")}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Stats().Dials; got != 1 {
		t.Fatalf("sequential traffic dialed %d conns, want 1", got)
	}

	// Saturate: 32 concurrent calls parked in the handler push in-flight
	// load far past the threshold, so later arrivals grow the stripe set.
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.Call(context.Background(), srv.Endpoint(),
				&wire.Envelope{Kind: wire.KindRequest, Method: "block", Payload: []byte("x")}, 30*time.Second); err != nil {
				t.Error(err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && d.Stats().GrowthDials == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()
	st := d.Stats()
	if st.GrowthDials == 0 {
		t.Fatalf("no growth dials under saturation: %+v", st)
	}
	if st.Dials > 4 {
		t.Fatalf("grew past the Stripes ceiling: %+v", st)
	}
}
