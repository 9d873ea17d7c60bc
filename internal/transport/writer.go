package transport

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"godcdo/internal/wire"
)

// errWriterClosed is returned by enqueue after the writer has been stopped
// or has died on a write error.
var errWriterClosed = errors.New("transport: connection writer closed")

// defaultWriteQueue bounds a connection's outbound frame queue when the
// owner does not choose a depth. Deep enough that a pipelining burst rarely
// blocks, shallow enough that a stalled peer cannot buffer unbounded memory.
const defaultWriteQueue = 128

// combineYieldBudget caps how many times one combine yields the processor
// hoping to grow its batch. Each yield that nets new frames earns another
// (up to the budget); a yield that nets nothing flushes immediately. With an
// empty run queue a yield costs nanoseconds, so a latency-sensitive lone
// caller is unaffected.
const combineYieldBudget = 5

// outFrame is one encoded envelope queued for write-out. buf is pooled
// (wire.PutBuf-able); the writer owns and releases it once written or
// discarded. id, when non-zero, names the call awaiting a response so a
// frame that provably never reached the wire can be failed as safe-to-retry.
type outFrame struct {
	buf []byte
	id  uint64
}

// frameWriter coalesces outbound frames onto one connection without a
// dedicated goroutine. Enqueue places the frame on a bounded queue and then
// tries to become the combiner: the one goroutine holding mu, which drains
// the queue and writes every frame it finds with one vectored write per
// drain. A goroutine that loses the TryLock returns immediately — the active
// combiner's post-unlock recheck guarantees its frame is written, by that
// combiner or a successor.
//
// The shape matters on small machines. A lone caller combines a batch of
// one: a single write of header and frame, with no goroutine handoff and no
// added latency. Under pipelining, whichever caller holds the lock writes
// everyone's frames and the write syscall is amortised over the whole
// batch; the peers' read loops then receive many frames per read syscall
// for free. A dedicated writer goroutine gets neither property: it adds a
// scheduler wakeup per frame, and on a loaded single-core box it drains one
// frame at a time, writing batches of one.
//
// Each batch leaves as one net.Buffers write of [header, frame] pairs: one
// writev on a TCP connection, whatever the frame sizes, with no copy into an
// intermediate buffer. (An io.Writer without vectored writes gets one Write
// per header and per frame.) The gather scratch lives in the writer and is
// reused, so a steady-state batch allocates nothing.
//
// Failure semantics: the first write error kills the writer. Frames in the
// batch being written may have partially reached the kernel — their fate is
// ambiguous, and resolving them is left to the connection's death path (the
// read loop fails all still-pending calls). A frame over wire.MaxFrameSize
// kills the writer with wire.ErrFrameTooLarge before its batch is written;
// that batch is discarded on the same ambiguous terms. Frames still queued
// at death provably never reached the wire; each is reported through
// onNeverWritten so its caller can be failed safe-to-retry.
type frameWriter struct {
	conn io.Writer
	ch   chan outFrame
	mu   sync.Mutex // held by the active combiner; guards conn and the scratch below

	// Gather scratch for one batch, reused across drains: hdrs holds every
	// gathered frame's header, vec the [header, frame] iovec pairs, and bufs
	// the pooled frames to release once the batch is written (kept apart from
	// vec because a partial write re-slices vec's entries in place). iov is
	// the view WriteTo consumes; it is a field so the write does not move a
	// local slice header to the heap on every batch.
	hdrs []byte
	vec  net.Buffers
	bufs [][]byte
	iov  net.Buffers

	stop     chan struct{} // closed by Stop: reject new frames, drain the rest
	stopOnce sync.Once
	dead     chan struct{} // closed on the first write error
	deadOnce sync.Once

	// onDead, when non-nil, runs once with the first write error, before any
	// onNeverWritten call. onNeverWritten, when non-nil, runs for every
	// frame with a non-zero id that was discarded without being written.
	// Both run on whichever goroutine is combining when the error surfaces.
	onDead         func(err error)
	onNeverWritten func(id uint64, err error)

	// flushes/frames are owner-provided batch counters (frames÷flushes is
	// the realised batch size).
	flushes *atomic.Uint64
	frames  *atomic.Uint64
}

// newFrameWriter builds a writer over conn with the given queue depth
// (defaultWriteQueue when <= 0).
func newFrameWriter(conn io.Writer, queue int, flushes, frames *atomic.Uint64,
	onDead func(error), onNeverWritten func(uint64, error)) *frameWriter {
	if queue <= 0 {
		queue = defaultWriteQueue
	}
	return &frameWriter{
		conn:           conn,
		ch:             make(chan outFrame, queue),
		stop:           make(chan struct{}),
		dead:           make(chan struct{}),
		onDead:         onDead,
		onNeverWritten: onNeverWritten,
		flushes:        flushes,
		frames:         frames,
	}
}

// Enqueue hands one frame to the writer, blocking while the queue is full,
// and then pumps: the caller either becomes the combiner and writes the
// batch itself, or observes an active combiner that is guaranteed to write
// the frame. On success the writer owns f.buf (a dead writer releases it and
// reports it through onNeverWritten). On error the caller keeps ownership
// and knows the frame never reached the wire.
func (w *frameWriter) Enqueue(f outFrame) error {
	// Fast-fail before blocking: a dead or stopped writer never drains.
	select {
	case <-w.dead:
		return errWriterClosed
	case <-w.stop:
		return errWriterClosed
	default:
	}
	select {
	case w.ch <- f:
	case <-w.dead:
		return errWriterClosed
	case <-w.stop:
		return errWriterClosed
	}
	w.pump()
	return nil
}

// pump makes this goroutine the combiner if no other goroutine already is.
// The post-unlock recheck closes the handoff race: a frame enqueued while we
// held the lock, whose owner then failed its own TryLock against us, must
// not strand — the channel length check happens after our unlock, so it sees
// any such frame and loops to claim it.
func (w *frameWriter) pump() {
	for {
		if !w.mu.TryLock() {
			// An active combiner exists. Our frame was enqueued before its
			// unlock, so its recheck (or a successor's) will see it.
			return
		}
		w.combine()
		w.mu.Unlock()
		if len(w.ch) == 0 {
			return
		}
	}
}

// combine drains the queue and writes it as one batch. Must hold w.mu.
// After death it keeps draining, discarding each frame as never-written, so
// blocked enqueuers unstick and their calls fail safe instead of timing out.
//
// Before the write, the combiner yields the processor once. This is what
// makes batches form when goroutines outnumber cores: runnable peers — a
// pipelined caller just woken by its previous response, a handler goroutine
// about to enqueue its reply — get to run up to their own enqueue, lose the
// TryLock to us, and land in the queue we are about to drain. Without the
// yield, a combiner on a saturated single-core box always finishes its
// write before any peer runs, and every "batch" is one frame. With no other
// runnable goroutine the yield is a few nanoseconds, so a lone low-latency
// caller pays nothing.
func (w *frameWriter) combine() {
	yields := 0
	for {
		select {
		case f := <-w.ch:
			if w.isDead() {
				w.neverWritten(f)
				continue
			}
			if len(f.buf) > wire.MaxFrameSize {
				wire.PutBuf(f.buf)
				w.died(wire.ErrFrameTooLarge)
				continue
			}
			w.gather(f.buf)
		default:
			if len(w.bufs) > 0 && yields < combineYieldBudget && !w.isDead() {
				yields++
				runtime.Gosched()
				if len(w.ch) > 0 {
					continue // the yield produced frames: grow the batch
				}
				// Nothing arrived; stop waiting and write what we have.
			}
			if len(w.bufs) > 0 && !w.isDead() {
				w.writeBatch()
			}
			w.release()
			return
		}
	}
}

// gather appends one frame and its header to the pending batch.
func (w *frameWriter) gather(buf []byte) {
	// hdrs may move when it grows; headers already gathered keep pointing
	// into the old array, which still holds them, so the batch stays intact.
	off := len(w.hdrs)
	w.hdrs = wire.AppendFrameHeader(w.hdrs, len(buf))
	w.vec = append(w.vec, w.hdrs[off:len(w.hdrs):len(w.hdrs)], buf)
	w.bufs = append(w.bufs, buf)
}

// writeBatch writes the gathered batch in one vectored write and counts it.
func (w *frameWriter) writeBatch() {
	w.iov = w.vec
	if _, err := w.iov.WriteTo(w.conn); err != nil {
		w.died(err)
		return
	}
	if w.flushes != nil {
		w.flushes.Add(1)
		w.frames.Add(uint64(len(w.bufs)))
	}
}

// release returns the batch's frames to the pool, written or not, and resets
// the scratch for the next drain.
func (w *frameWriter) release() {
	for _, buf := range w.bufs {
		wire.PutBuf(buf)
	}
	clear(w.bufs)
	clear(w.vec)
	w.bufs = w.bufs[:0]
	w.vec = w.vec[:0]
	w.hdrs = w.hdrs[:0]
	w.iov = nil
}

// Stop rejects further frames, then drains and writes whatever is queued
// (discarding it if the writer is dead). Idempotent and safe from multiple
// goroutines. Callers must first guarantee no Enqueue can race the stop (the
// transport stops the writer only after every handler/caller that might
// enqueue has finished or the connection is being torn down); an enqueue
// that does race sees errWriterClosed or, at worst, leaves its frame for
// the GC.
func (w *frameWriter) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	for {
		w.mu.Lock()
		w.combine()
		w.mu.Unlock()
		if len(w.ch) == 0 {
			return
		}
	}
}

func (w *frameWriter) isDead() bool {
	select {
	case <-w.dead:
		return true
	default:
		return false
	}
}

// died marks the writer dead and notifies the owner exactly once. Runs with
// w.mu held, on the combining goroutine.
func (w *frameWriter) died(err error) {
	w.deadOnce.Do(func() {
		close(w.dead)
		if w.onDead != nil {
			w.onDead(err)
		}
	})
}

func (w *frameWriter) neverWritten(f outFrame) {
	wire.PutBuf(f.buf)
	if f.id != 0 && w.onNeverWritten != nil {
		w.onNeverWritten(f.id, errWriterClosed)
	}
}
