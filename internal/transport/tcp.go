package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"godcdo/internal/wire"
)

// ServerStats counts TCPServer outcomes, mirroring DialerStats on the other
// side of the wire. DecodeErrors count connections dropped because a frame
// failed to decode (stream desynchronisation); DroppedFrames count responses
// deliberately withheld (the Dropped fault-injection sentinel).
// BatchFlushes/BatchedFrames expose the response coalescer: BatchFlushes
// counts batch writes (one vectored write each), and frames÷flushes is the
// realised write batch size.
type ServerStats struct {
	AcceptedConns uint64
	ActiveConns   int64
	DecodeErrors  uint64
	DroppedFrames uint64
	BatchFlushes  uint64
	BatchedFrames uint64
}

// TCPServerOptions tunes the server's fast path. The zero value is the
// default configuration (coalescing on, unlimited workers).
type TCPServerOptions struct {
	// MaxWorkers bounds concurrent handler goroutines across the whole
	// server. When the bound is reached the read loops stop pulling frames,
	// so backpressure lands on the kernel socket buffers instead of on
	// unbounded goroutine growth. It composes with the dispatcher's
	// admission control: admission sheds load per node with CodeOverloaded,
	// while MaxWorkers caps raw goroutine fan-out below it. Zero means
	// unlimited (one goroutine per in-flight request).
	MaxWorkers int
	// WriteQueue bounds each connection's outbound response queue, in
	// frames. Zero means defaultWriteQueue.
	WriteQueue int
	// DisableFastPath reverts to the pre-fast-path transport: unpooled
	// frame reads and a synchronous write+flush per response. It exists as
	// the honest baseline for the E10 experiment and as an escape hatch.
	DisableFastPath bool
}

// TCPServer serves envelopes over TCP. Each connection is read by one
// goroutine; requests are dispatched concurrently so a slow handler does not
// head-of-line block pipelined callers. Responses from all handlers on a
// connection funnel through one coalescing writer, which issues one
// vectored write per batch rather than one write per response.
type TCPServer struct {
	handler  Handler
	listener net.Listener
	opts     TCPServerOptions

	// workers is the MaxWorkers semaphore (nil = unlimited). Acquired by the
	// read loop before spawning a handler goroutine.
	workers chan struct{}

	// ctx is the server's lifetime context, cancelled on Close so in-flight
	// handlers observe shutdown. It is the ctx passed to Handler.Handle.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	accepted     atomic.Uint64
	active       atomic.Int64
	decodeErrors atomic.Uint64
	dropped      atomic.Uint64
	flushes      atomic.Uint64
	frames       atomic.Uint64
}

var _ Server = (*TCPServer)(nil)

// ListenTCP starts a server on addr ("127.0.0.1:0" picks a free port) with
// default options.
func ListenTCP(addr string, handler Handler) (*TCPServer, error) {
	return ListenTCPOptions(addr, handler, TCPServerOptions{})
}

// ListenTCPOptions starts a server on addr with explicit options.
func ListenTCPOptions(addr string, handler Handler, opts TCPServerOptions) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %q: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &TCPServer{handler: handler, listener: ln, opts: opts, ctx: ctx, cancel: cancel, conns: make(map[net.Conn]struct{})}
	if opts.MaxWorkers > 0 {
		s.workers = make(chan struct{}, opts.MaxWorkers)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Stats returns a snapshot of the server counters.
func (s *TCPServer) Stats() ServerStats {
	return ServerStats{
		AcceptedConns: s.accepted.Load(),
		ActiveConns:   s.active.Load(),
		DecodeErrors:  s.decodeErrors.Load(),
		DroppedFrames: s.dropped.Load(),
		BatchFlushes:  s.flushes.Load(),
		BatchedFrames: s.frames.Load(),
	}
}

// Endpoint implements Server.
func (s *TCPServer) Endpoint() string {
	return "tcp:" + s.listener.Addr().String()
}

// Close implements Server.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.cancel()
	err := s.listener.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.accepted.Add(1)
		s.active.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
		s.active.Add(-1)
	}()
	if s.opts.DisableFastPath {
		s.serveConnLegacy(conn)
		return
	}

	br := bufio.NewReader(conn)
	wr := newFrameWriter(conn, s.opts.WriteQueue, &s.flushes, &s.frames, nil, nil)
	var handlers sync.WaitGroup
	// Shutdown order matters for both accounting and delivery: every handler
	// must have finished (so DroppedFrames and its response enqueue are
	// final) before the writer stops, and the writer drains and writes what
	// it holds before the connection-cleanup defer above closes the socket.
	defer wr.Stop()
	defer handlers.Wait()

	for {
		frame, err := wire.ReadFramePooled(br)
		if err != nil {
			return // EOF or broken connection
		}
		req, err := wire.DecodeEnvelope(frame)
		if err != nil {
			// Stream desynchronised; the connection must drop (nothing after
			// a bad frame can be trusted), but count it so operators can see
			// protocol corruption instead of a silent disconnect.
			wire.PutBuf(frame)
			s.decodeErrors.Add(1)
			return
		}
		if s.workers != nil {
			// Blocking here parks the read loop, so backpressure reaches the
			// client through TCP flow control rather than goroutine pileup.
			select {
			case s.workers <- struct{}{}:
			case <-s.ctx.Done():
				wire.PutBuf(frame)
				return
			}
		}
		handlers.Add(1)
		// Direct method spawn, not a closure: the arguments travel in the
		// goroutine frame, so the per-request closure allocation disappears
		// from the hot path.
		go s.handleOneAsync(req, frame, wr, &handlers)
	}
}

// handleOneAsync is the goroutine body behind each fast-path request: it
// dispatches, releases the MaxWorkers slot acquired by the read loop, and
// signals the connection's handler WaitGroup.
func (s *TCPServer) handleOneAsync(req *wire.Envelope, frame []byte, wr *frameWriter, handlers *sync.WaitGroup) {
	defer handlers.Done()
	if s.workers != nil {
		defer func() { <-s.workers }()
	}
	s.handleOne(req, frame, wr)
}

// handleOne dispatches one decoded request and enqueues its response on the
// connection's coalescing writer. frame is the pooled buffer req was decoded
// from; req.Payload aliases it, so it is released only after the response —
// which for echo-style handlers may itself alias the request payload — has
// been encoded into its own buffer.
func (s *TCPServer) handleOne(req *wire.Envelope, frame []byte, wr *frameWriter) {
	resp := s.handler.Handle(s.ctx, req)
	if resp == Dropped {
		s.dropped.Add(1)
		wire.PutBuf(frame)
		return // injected response loss: leave the caller to time out
	}
	if resp == nil {
		resp = &wire.Envelope{
			Kind: wire.KindError, ID: req.ID,
			Code: wire.CodeInternal, ErrorMsg: "nil response from handler",
		}
	}
	resp.ID = req.ID
	buf := resp.EncodePooled()
	wire.PutBuf(frame)
	// The response is fully encoded into buf; recycle the envelope (and any
	// frame-pool payload travelling with it). A no-op for handlers that
	// return envelopes from other sources.
	wire.PutEnvelope(resp)
	if err := wr.Enqueue(outFrame{buf: buf}); err != nil {
		wire.PutBuf(buf) // writer refused ownership; the conn is going down
	}
}

// serveConnLegacy is the pre-fast-path read loop: unpooled frames, one
// goroutine per request, one write+flush per response under a mutex.
func (s *TCPServer) serveConnLegacy(conn net.Conn) {
	var writeMu sync.Mutex
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)
	var handlers sync.WaitGroup
	defer handlers.Wait()

	for {
		frame, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		req, err := wire.DecodeEnvelope(frame)
		if err != nil {
			s.decodeErrors.Add(1)
			return
		}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			resp := s.handler.Handle(s.ctx, req)
			if resp == Dropped {
				s.dropped.Add(1)
				return
			}
			if resp == nil {
				resp = &wire.Envelope{
					Kind: wire.KindError, ID: req.ID,
					Code: wire.CodeInternal, ErrorMsg: "nil response from handler",
				}
			}
			resp.ID = req.ID
			writeMu.Lock()
			defer writeMu.Unlock()
			if err := wire.WriteFrame(bw, resp.Encode()); err != nil {
				return
			}
			_ = bw.Flush()
		}()
	}
}

// maxOrphanWatch bounds how many timed-out call IDs one connection tracks
// for late-response accounting; entries are dropped when the response
// arrives or the connection dies.
const maxOrphanWatch = 1024

// defaultTimeoutEvictAfter is the consecutive-timeout threshold after which
// a pooled connection is presumed wedged and evicted.
const defaultTimeoutEvictAfter = 3

// DialerStats counts TCPDialer outcomes. OrphanedResponses are responses
// that arrived after their call had already timed out — evidence that the
// server executed a request whose caller had given up, which is exactly the
// ambiguity the invoke retry policy must respect. BatchFlushes/BatchedFrames
// expose the request coalescer; OpenConns counts live connections across all
// endpoints and stripes.
type DialerStats struct {
	Dials             uint64
	Timeouts          uint64
	Evictions         uint64
	OrphanedResponses uint64
	BatchFlushes      uint64
	BatchedFrames     uint64
	OpenConns         int
	// GrowthDials counts stripes dialed by load (AdaptiveStripes), as
	// opposed to dialed out of necessity.
	GrowthDials uint64
}

// TCPDialer issues calls over pooled TCP connections with responses
// correlated by envelope ID. Each endpoint gets up to Stripes connections,
// chosen round-robin per call, so a single TCP stream's head-of-line
// blocking and per-connection throughput ceiling stop being the bottleneck
// at high caller concurrency. Outbound frames on each connection are
// coalesced by a writer that issues one vectored write per batch.
type TCPDialer struct {
	// DialTimeout bounds connection establishment. Zero means 5 s.
	DialTimeout time.Duration
	// TimeoutEvictAfter evicts a pooled connection after this many
	// consecutive call timeouts, so one wedged connection does not make
	// every later call to the endpoint eat the full timeout. Zero means 3.
	// With striping, eviction drops only the wedged stripe.
	TimeoutEvictAfter int
	// Stripes is the number of connections per endpoint, chosen round-robin
	// per call and dialed lazily. Zero means 1 (the pre-striping behaviour).
	// Set before the first Call; an endpoint's stripe count is fixed when
	// its first connection is dialed.
	Stripes int
	// AdaptiveStripes changes Stripes from a round-robin ramp into a
	// load-driven ceiling: one connection is dialed up front and additional
	// stripes are opened only while the mean in-flight calls per live
	// stripe meet StripeLoadThreshold. Lightly loaded endpoints keep one
	// socket; saturated ones grow to Stripes. Set before the first Call.
	AdaptiveStripes bool
	// StripeLoadThreshold is the mean in-flight calls per live stripe that
	// triggers adaptive growth. Zero means defaultStripeLoadThreshold.
	StripeLoadThreshold int
	// WriteQueue bounds each connection's outbound frame queue. Zero means
	// defaultWriteQueue.
	WriteQueue int
	// DisableFastPath reverts to the pre-fast-path behaviour: synchronous
	// write+flush per request under the connection lock and unpooled frame
	// reads. It exists as the honest baseline for the E10 experiment and as
	// an escape hatch. Set before the first Call.
	DisableFastPath bool

	mu     sync.Mutex
	conns  map[string]*tcpEndpoint
	closed bool

	// nextID is outside the pool mutex: call-ID allocation is on every
	// call's fast path and must not contend with dial/evict bookkeeping.
	nextID atomic.Uint64

	dials     atomic.Uint64
	timeouts  atomic.Uint64
	evictions atomic.Uint64
	orphaned  atomic.Uint64
	flushes   atomic.Uint64
	frames    atomic.Uint64
	growth    atomic.Uint64
}

var _ Dialer = (*TCPDialer)(nil)

// NewTCPDialer returns an empty connection pool.
func NewTCPDialer() *TCPDialer {
	return &TCPDialer{conns: make(map[string]*tcpEndpoint)}
}

// Stats returns a snapshot of the dialer counters.
func (d *TCPDialer) Stats() DialerStats {
	return DialerStats{
		Dials:             d.dials.Load(),
		Timeouts:          d.timeouts.Load(),
		Evictions:         d.evictions.Load(),
		OrphanedResponses: d.orphaned.Load(),
		BatchFlushes:      d.flushes.Load(),
		BatchedFrames:     d.frames.Load(),
		OpenConns:         d.openConns(),
		GrowthDials:       d.growth.Load(),
	}
}

// openConns counts live stripe connections across all endpoints.
func (d *TCPDialer) openConns() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, ep := range d.conns {
		for _, cc := range ep.stripes {
			if cc != nil {
				n++
			}
		}
	}
	return n
}

func (d *TCPDialer) evictAfter() int {
	if d.TimeoutEvictAfter > 0 {
		return d.TimeoutEvictAfter
	}
	return defaultTimeoutEvictAfter
}

func (d *TCPDialer) stripeCount() int {
	if d.Stripes > 0 {
		return d.Stripes
	}
	return 1
}

// defaultStripeLoadThreshold is the mean in-flight calls per live stripe
// above which AdaptiveStripes opens another connection. Eight in-flight
// calls is roughly where one coalesced TCP stream's per-flush ceiling starts
// to show in E10-style pipelined load.
const defaultStripeLoadThreshold = 8

func (d *TCPDialer) stripeLoadThreshold() int {
	if d.StripeLoadThreshold > 0 {
		return d.StripeLoadThreshold
	}
	return defaultStripeLoadThreshold
}

// tcpEndpoint is one endpoint's stripe set. Slots are dialed lazily and
// nilled on drop; the endpoint entry itself is removed from the pool once
// every slot is empty, so an unreachable endpoint does not pin map entries.
type tcpEndpoint struct {
	stripes []*tcpClientConn // guarded by TCPDialer.mu
	rr      atomic.Uint64    // round-robin cursor
	dialing atomic.Bool      // adaptive-growth dial in progress (anti-stampede)
}

// callOutcome is the resolution of one in-flight call: a response, or a
// classified transport error. Exactly one resolver delivers it (resolvers
// remove the pending entry under the lock before sending, and the channel
// is buffered), which is what lets waiters receive without polling.
type callOutcome struct {
	resp *wire.Envelope
	err  error
}

// respChPool recycles the per-call outcome channels of the fast path. A
// channel is returned only when it is provably quiescent: either the waiter
// consumed the one outcome a resolver committed to it, or the waiter removed
// the pending entry itself, in which case no resolver ever held a claim and
// nothing was or will be sent. The legacy path keeps allocating fresh
// channels — it is the pre-PR baseline and must not borrow fast-path wins.
var respChPool = sync.Pool{New: func() any { return make(chan callOutcome, 1) }}

// timerPool recycles the per-call timeout timers of the fast path. putTimer
// restores the invariant that a pooled timer is stopped with an empty
// channel, so Reset on reuse is safe.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		// Fired. The waiter either consumed the tick (timeout branch) or it
		// is still buffered; drain so the next Reset starts clean.
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

type tcpClientConn struct {
	conn net.Conn
	bw   *bufio.Writer // legacy-mode writer; nil on the fast path
	wr   *frameWriter  // coalescing writer; nil when DisableFastPath

	mu             sync.Mutex // guards bw (legacy mode), pending, orphans, counters
	pending        map[uint64]chan callOutcome
	orphans        map[uint64]struct{} // timed-out IDs awaiting late responses
	consecTimeouts int
	dead           error

	// deadFlag mirrors dead != nil so the stripe picker can skip dying
	// connections without taking cc.mu; set (never cleared) wherever dead
	// is assigned.
	deadFlag atomic.Bool
	// nPending mirrors len(pending) (via syncPending, under cc.mu) so the
	// adaptive stripe picker can read in-flight load lock-free.
	nPending atomic.Int64
}

// syncPending refreshes the lock-free in-flight mirror; call under cc.mu
// after every pending-map mutation.
func (cc *tcpClientConn) syncPending() {
	cc.nPending.Store(int64(len(cc.pending)))
}

// resolve delivers out to the call waiting on id, if it is still pending.
// It reports whether this caller won the resolution.
func (cc *tcpClientConn) resolve(id uint64, out callOutcome) bool {
	cc.mu.Lock()
	ch, ok := cc.pending[id]
	if ok {
		delete(cc.pending, id)
		cc.syncPending()
	}
	cc.mu.Unlock()
	if ok {
		ch <- out
	}
	return ok
}

// Call implements Dialer.
func (d *TCPDialer) Call(ctx context.Context, endpoint string, req *wire.Envelope, timeout time.Duration) (*wire.Envelope, error) {
	scheme, addr, err := ParseEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	if scheme != SchemeTCP {
		return nil, fmt.Errorf("%w: TCP dialer got %q", ErrBadEndpoint, endpoint)
	}
	if timeout <= 0 {
		return nil, fmt.Errorf("%w: %v", ErrInvalidTimeout, timeout)
	}
	wait, err := callWait(ctx, timeout)
	if err != nil {
		return nil, err
	}
	StampDeadline(ctx, req)
	cc, err := d.getConn(endpoint, addr)
	if err != nil {
		// Dial failure: nothing was sent, safe to retry elsewhere.
		return nil, safeErr(err)
	}

	id := d.nextID.Add(1)
	req.ID = id
	fast := cc.wr != nil
	var respCh chan callOutcome
	if fast {
		respCh = respChPool.Get().(chan callOutcome)
	} else {
		respCh = make(chan callOutcome, 1)
	}

	if fast {
		// Fast path: register, then hand the encoded frame to the coalescing
		// writer. The writer owns the buffer on success; if the frame is
		// later discarded unwritten, the writer resolves this call as
		// safe-to-retry through onNeverWritten.
		cc.mu.Lock()
		if cc.dead != nil {
			err := cc.dead
			cc.mu.Unlock()
			d.dropConn(endpoint, cc)
			respChPool.Put(respCh) // never registered: no resolver can hold it
			// The connection was already dead before this request was written.
			return nil, safeErr(err)
		}
		cc.pending[id] = respCh
		cc.syncPending()
		cc.mu.Unlock()
		buf := req.EncodePooled()
		if err := cc.wr.Enqueue(outFrame{buf: buf, id: id}); err != nil {
			wire.PutBuf(buf)
			cc.mu.Lock()
			_, wasPending := cc.pending[id]
			delete(cc.pending, id)
			cc.syncPending()
			cc.mu.Unlock()
			if wasPending {
				// The frame never entered the queue: provably unwritten, and
				// we reclaimed the pending entry, so nothing was or will be
				// sent on respCh.
				respChPool.Put(respCh)
				return nil, safeErr(fmt.Errorf("%w during write: %v", ErrReset, err))
			}
			// A death path resolved the call first; its verdict is committed
			// to respCh, so take that instead of inventing our own.
			out := <-respCh
			respChPool.Put(respCh)
			return d.finish(cc, out)
		}
	} else {
		// Legacy path: synchronous write+flush per request under the lock.
		cc.mu.Lock()
		if cc.dead != nil {
			err := cc.dead
			cc.mu.Unlock()
			d.dropConn(endpoint, cc)
			return nil, safeErr(err)
		}
		cc.pending[id] = respCh
		cc.syncPending()
		writeErr := wire.WriteFrame(cc.bw, req.Encode())
		if writeErr == nil {
			writeErr = cc.bw.Flush()
		}
		if writeErr != nil {
			delete(cc.pending, id)
			cc.syncPending()
			cc.mu.Unlock()
			d.dropConn(endpoint, cc)
			// A write error means the length-prefixed frame never fully reached
			// the kernel, so the server cannot have dispatched it: safe.
			return nil, safeErr(fmt.Errorf("%w during write: %v", ErrReset, writeErr))
		}
		cc.mu.Unlock()
	}

	var timer *time.Timer
	if fast {
		timer = getTimer(wait)
	} else {
		timer = time.NewTimer(wait)
	}
	select {
	case out := <-respCh:
		if fast {
			putTimer(timer)
			respChPool.Put(respCh)
		} else {
			timer.Stop()
		}
		return d.finish(cc, out)
	case <-ctx.Done():
		// The caller gave up (cancellation or its deadline, whichever ctx
		// carries). The request may already be on the wire, so the server may
		// execute it anyway; keep the orphan watch so a late response is
		// accounted rather than dropped silently. Cancellation says nothing
		// about connection health, so it does not feed timeout eviction.
		cc.mu.Lock()
		_, wasPending := cc.pending[id]
		if wasPending {
			delete(cc.pending, id)
			cc.syncPending()
			if len(cc.orphans) < maxOrphanWatch {
				cc.orphans[id] = struct{}{}
			}
		}
		cc.mu.Unlock()
		if !wasPending {
			// A resolver won the race; its outcome is committed to respCh.
			// Cancellation still wins, but a real response that loses this
			// race is an orphan for accounting, not a silent drop.
			if out := <-respCh; out.resp != nil {
				d.orphaned.Add(1)
			}
		}
		if fast {
			// Either we reclaimed the pending entry (no send ever) or we
			// consumed the committed outcome above: quiescent either way.
			putTimer(timer)
			respChPool.Put(respCh)
		} else {
			timer.Stop()
		}
		return nil, &CallError{Class: RetryNever, Err: ctx.Err()}
	case <-timer.C:
		cc.mu.Lock()
		_, wasPending := cc.pending[id]
		if wasPending {
			delete(cc.pending, id)
			cc.syncPending()
			if len(cc.orphans) < maxOrphanWatch {
				cc.orphans[id] = struct{}{}
			}
			cc.consecTimeouts++
		}
		evict := cc.consecTimeouts >= d.evictAfter()
		cc.mu.Unlock()
		if !wasPending {
			// A resolver claimed this call as the timer fired; its outcome is
			// already committed to respCh (resolvers delete the pending entry
			// before sending on the buffered channel), so block for it. The
			// old non-blocking poll here silently dropped responses still in
			// flight between the delete and the send.
			out := <-respCh
			if fast {
				putTimer(timer)
				respChPool.Put(respCh)
			}
			return d.finish(cc, out)
		}
		d.timeouts.Add(1)
		if evict {
			d.evictions.Add(1)
			d.dropConn(endpoint, cc)
		}
		if fast {
			// The tick was consumed and the pending entry reclaimed.
			putTimer(timer)
			respChPool.Put(respCh)
		}
		return nil, ambiguousErr(fmt.Errorf("%w: %s after %v", ErrTimeout, endpoint, wait))
	}
}

// finish translates a delivered outcome into Call's return values, resetting
// the wedge detector on any real response.
func (d *TCPDialer) finish(cc *tcpClientConn, out callOutcome) (*wire.Envelope, error) {
	if out.err != nil {
		return nil, out.err
	}
	cc.mu.Lock()
	cc.consecTimeouts = 0
	cc.mu.Unlock()
	return out.resp, nil
}

// Close implements Dialer.
func (d *TCPDialer) Close() error {
	d.mu.Lock()
	d.closed = true
	conns := make([]*tcpClientConn, 0, len(d.conns))
	for _, ep := range d.conns {
		for _, cc := range ep.stripes {
			if cc != nil {
				conns = append(conns, cc)
			}
		}
	}
	d.conns = make(map[string]*tcpEndpoint)
	d.mu.Unlock()
	for _, cc := range conns {
		_ = cc.conn.Close()
		if cc.wr != nil {
			cc.wr.Stop()
		}
	}
	return nil
}

// getConn picks (or dials) the stripe connection for one call.
//
// Static mode keeps the original lazy round-robin ramp — the rr slot dials
// when empty — with one fix: a stripe whose connection is already marked
// dead (writer error or read-loop death racing its removal) is skipped when
// a live alternative exists, instead of being handed out to fail the call.
//
// Adaptive mode (AdaptiveStripes) treats Stripes as a ceiling: the first
// call dials one connection, later calls rotate over live stripes, and a new
// stripe is dialed only while mean in-flight load per live stripe reaches
// StripeLoadThreshold (one grower at a time per endpoint).
func (d *TCPDialer) getConn(endpoint, addr string) (*tcpClientConn, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	ep := d.conns[endpoint]
	if ep == nil {
		ep = &tcpEndpoint{stripes: make([]*tcpClientConn, d.stripeCount())}
		d.conns[endpoint] = ep
	}
	n := len(ep.stripes)
	start := int(ep.rr.Add(1) % uint64(n))

	// One scan from the rr cursor: first live stripe wins; remember the
	// first empty slot and any dead conn, and sum in-flight load.
	var live, deadCC *tcpClientConn
	emptyIdx, liveCount := -1, 0
	var pendingSum int64
	for i := 0; i < n; i++ {
		cc := ep.stripes[(start+i)%n]
		switch {
		case cc == nil:
			if emptyIdx < 0 {
				emptyIdx = (start + i) % n
			}
		case cc.deadFlag.Load():
			if deadCC == nil {
				deadCC = cc
			}
		default:
			if live == nil {
				live = cc
			}
			liveCount++
			pendingSum += cc.nPending.Load()
		}
	}

	idx, grow := -1, false
	if d.AdaptiveStripes {
		switch {
		case live == nil && emptyIdx >= 0:
			idx = emptyIdx // nothing usable: dial out of necessity
		case live != nil && emptyIdx >= 0 &&
			pendingSum >= int64(liveCount)*int64(d.stripeLoadThreshold()):
			idx, grow = emptyIdx, true
		}
	} else if cc := ep.stripes[start]; cc == nil {
		idx = start // lazy ramp: the rr slot dials when empty
	} else if cc.deadFlag.Load() && live == nil && emptyIdx >= 0 {
		idx = emptyIdx // rr hit a dead conn, nothing live: dial a fresh slot
	}

	if idx < 0 {
		pick := live
		if pick == nil {
			// Only dead conns remain and no slot is free to redial: hand one
			// back; Call fails it fast with a safe, retryable error.
			pick = deadCC
		}
		if pick != nil {
			d.mu.Unlock()
			return pick, nil
		}
		idx = start // unreachable (some slot is always nil or occupied)
	}
	if grow {
		if !ep.dialing.CompareAndSwap(false, true) {
			// Another caller is already growing this endpoint; don't stampede
			// dials, just use a live stripe.
			d.mu.Unlock()
			return live, nil
		}
		defer ep.dialing.Store(false)
	}
	d.mu.Unlock()

	dialTimeout := d.DialTimeout
	if dialTimeout == 0 {
		dialTimeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnreachable, addr, err)
	}
	d.dials.Add(1)
	if grow {
		d.growth.Add(1)
	}
	cc := &tcpClientConn{
		conn:    conn,
		pending: make(map[uint64]chan callOutcome),
		orphans: make(map[uint64]struct{}),
	}
	// Pick the write path before the conn is published in its stripe slot:
	// a concurrent caller handed the conn decides fast versus legacy by
	// cc.wr, so it must never see the fast-path conn without its writer.
	if d.DisableFastPath {
		cc.bw = bufio.NewWriter(conn)
	} else {
		cc.wr = newFrameWriter(cc.conn, d.WriteQueue, &d.flushes, &d.frames,
			func(err error) {
				// First write error: mark the conn dead and drop it. Closing
				// the socket makes the read loop fail every call that may
				// already be on the wire as ambiguous; frames still queued
				// behind the error are failed safe via onNeverWritten.
				cc.mu.Lock()
				if cc.dead == nil {
					cc.dead = fmt.Errorf("%w during write: %v", ErrReset, err)
				}
				cc.deadFlag.Store(true)
				cc.mu.Unlock()
				d.dropConn(endpoint, cc)
			},
			func(id uint64, err error) {
				// This frame provably never reached the wire: safe to retry.
				cc.resolve(id, callOutcome{err: safeErr(fmt.Errorf("%w during write: %v", ErrReset, err))})
			})
	}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		_ = conn.Close()
		return nil, ErrClosed
	}
	cur := d.conns[endpoint]
	if cur == nil {
		// The endpoint entry was dropped (every stripe died) while we were
		// dialing; reinstate it.
		cur = &tcpEndpoint{stripes: make([]*tcpClientConn, d.stripeCount())}
		d.conns[endpoint] = cur
	}
	if idx >= len(cur.stripes) {
		idx %= len(cur.stripes)
	}
	if existing := cur.stripes[idx]; existing != nil {
		// Lost the race for this stripe; use the winner's connection.
		d.mu.Unlock()
		_ = conn.Close()
		return existing, nil
	}
	cur.stripes[idx] = cc
	d.mu.Unlock()

	go d.readLoop(endpoint, cc)
	return cc, nil
}

func (d *TCPDialer) readLoop(endpoint string, cc *tcpClientConn) {
	br := bufio.NewReader(cc.conn)
	var loopErr error
	for {
		var frame []byte
		var err error
		if cc.wr != nil {
			frame, err = wire.ReadFramePooled(br)
		} else {
			frame, err = wire.ReadFrame(br)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				loopErr = fmt.Errorf("%w: connection closed by peer", ErrUnreachable)
			} else {
				loopErr = fmt.Errorf("%w: %v", ErrUnreachable, err)
			}
			break
		}
		resp, err := wire.DecodeEnvelope(frame)
		if err != nil {
			if cc.wr != nil {
				wire.PutBuf(frame)
			}
			loopErr = fmt.Errorf("%w: %v", ErrUnreachable, err)
			break
		}
		cc.mu.Lock()
		ch, ok := cc.pending[resp.ID]
		delete(cc.pending, resp.ID)
		cc.syncPending()
		var orphan bool
		if !ok {
			if _, orphan = cc.orphans[resp.ID]; orphan {
				delete(cc.orphans, resp.ID)
			}
		}
		cc.mu.Unlock()
		if ok {
			if cc.wr != nil {
				// The payload aliases the pooled frame, which is reused the
				// moment it is released: detach it before handing the
				// envelope to the caller.
				if len(resp.Payload) > 0 {
					p := make([]byte, len(resp.Payload))
					copy(p, resp.Payload)
					resp.Payload = p
				}
				wire.PutBuf(frame)
			}
			ch <- callOutcome{resp: resp}
		} else {
			if orphan {
				// The caller timed out and moved on; the server executed the
				// request anyway. Account for it instead of dropping silently.
				d.orphaned.Add(1)
			}
			if cc.wr != nil {
				wire.PutBuf(frame)
			}
		}
	}
	cc.mu.Lock()
	if cc.dead == nil {
		cc.dead = loopErr
	}
	cc.deadFlag.Store(true)
	pend := cc.pending
	cc.pending = make(map[uint64]chan callOutcome)
	cc.orphans = make(map[uint64]struct{})
	cc.syncPending()
	cc.mu.Unlock()
	for _, ch := range pend {
		// These frames were written (or queued) but never answered: the
		// server may or may not have executed them.
		ch <- callOutcome{err: ambiguousErr(fmt.Errorf("%w: connection lost mid-call", ErrUnreachable))}
	}
	d.dropConn(endpoint, cc)
}

// dropConn removes cc from its endpoint's stripe set (removing the endpoint
// entry once every stripe is gone), closes the socket, and stops the
// coalescing writer. Safe to call from any path, multiple times.
func (d *TCPDialer) dropConn(endpoint string, cc *tcpClientConn) {
	d.mu.Lock()
	if ep, ok := d.conns[endpoint]; ok {
		live := 0
		for i, c := range ep.stripes {
			if c == cc {
				ep.stripes[i] = nil
			} else if c != nil {
				live++
			}
		}
		if live == 0 {
			delete(d.conns, endpoint)
		}
	}
	d.mu.Unlock()
	_ = cc.conn.Close()
	if cc.wr != nil {
		// Asynchronous: dropConn may run on the writer's own goroutine (via
		// onDead), where a synchronous Stop would deadlock.
		go cc.wr.Stop()
	}
}
