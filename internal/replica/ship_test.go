package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/objstate"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// racingInner stands in for a writer that races the primary's snapshot: on
// every third State() access it first writes a fresh value of its own. The
// primary only touches State() under shipMu, once for the generation check
// and once more for the encode when it ships, so over a run these writes
// land both between a check and its encode and before a check.
type racingInner struct {
	*fakeInner
	accesses atomic.Uint64
}

func (r *racingInner) State() *objstate.State {
	if n := r.accesses.Add(1); n%3 == 0 {
		r.st.Set("racer", []byte(fmt.Sprint(n)))
	}
	return r.st
}

// shipment is one MethodApply payload as a backup received it.
type shipment struct {
	endpoint string
	image    []byte
}

// countingShipDialer records every MethodApply the primary sends, copying
// the image out of the (pooled) payload before the call returns.
type countingShipDialer struct {
	transport.Dialer
	mu    sync.Mutex
	ships []shipment
}

func (d *countingShipDialer) Call(ctx context.Context, endpoint string, req *wire.Envelope, timeout time.Duration) (*wire.Envelope, error) {
	if req.Method == MethodApply {
		dec := wire.NewDecoder(req.Payload)
		_, _ = dec.Uvarint() // epoch
		_, _ = dec.Uvarint() // seq
		image, err := dec.Bytes()
		if err != nil {
			return nil, fmt.Errorf("malformed shipment: %w", err)
		}
		d.mu.Lock()
		d.ships = append(d.ships, shipment{endpoint: endpoint, image: bytes.Clone(image)})
		d.mu.Unlock()
	}
	return d.Dialer.Call(ctx, endpoint, req, timeout)
}

// shipGroup is a 3-member group whose primary ships through a caller-chosen
// dialer, hosted on in-process or loopback TCP endpoints.
type shipGroup struct {
	loid     naming.LOID
	primary  string
	backups  []string
	states   map[string]*objstate.State
	callDial transport.Dialer
}

// newShipGroup hosts p, b1 and b2. listen serves one member's dispatcher
// and returns its endpoint; shipDialer wraps the dialer the primary ships
// through; wrapInner (optional) wraps the primary's inner object.
func newShipGroup(t *testing.T, listen func(name string, h transport.Handler) string,
	dialer transport.Dialer, shipDialer func(transport.Dialer) transport.Dialer,
	wrapInner func(*fakeInner) Inner) *shipGroup {
	t.Helper()
	g := &shipGroup{
		loid:     naming.LOID{Domain: 3, Class: 1, Instance: 7},
		states:   map[string]*objstate.State{},
		callDial: dialer,
	}
	names := []string{"p", "b1", "b2"}
	disps := map[string]*rpc.Dispatcher{}
	eps := map[string]string{}
	for _, name := range names {
		disps[name] = rpc.NewDispatcher()
		eps[name] = listen(name, disps[name])
	}
	g.primary, g.backups = eps["p"], []string{eps["b1"], eps["b2"]}
	for _, name := range names {
		inner := newFakeInner(1)
		var obj Inner = inner
		role, backups, d := RoleBackup, []string(nil), dialer
		if name == "p" {
			role, backups, d = RolePrimary, g.backups, shipDialer(dialer)
			if wrapInner != nil {
				obj = wrapInner(inner)
			}
		}
		rep := New(g.loid, obj, d, role, 1, backups)
		rep.ShipTimeout = 100 * time.Millisecond
		disps[name].Host(g.loid, rep)
		g.states[eps[name]] = inner.st
	}
	return g
}

func (g *shipGroup) set(k, v string) error {
	_, err := rpc.DirectCall(context.Background(), g.callDial, g.primary, g.loid, "set", setArgs(k, v), 2*time.Second)
	return err
}

// assertConverged fails unless every member holds byte-identical state.
func (g *shipGroup) assertConverged(t *testing.T) []byte {
	t.Helper()
	want := g.states[g.primary].Encode()
	for _, ep := range g.backups {
		if got := g.states[ep].Encode(); !bytes.Equal(got, want) {
			t.Fatalf("backup %s diverged from the primary: %d vs %d image bytes", ep, len(got), len(want))
		}
	}
	return want
}

func inprocListen(t *testing.T, net *transport.InprocNetwork) func(string, transport.Handler) string {
	return func(name string, h transport.Handler) string {
		srv, err := net.Listen(name, h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return srv.Endpoint()
	}
}

// TestShipGenTracksShippedImage pins shipGen to the generation captured with
// the shipped image: a write that lands between the primary's generation
// check and its encode rides the current shipment and must not be shipped a
// second time by the next call. Two writers race each other and a racing
// inner, each following every write with a read; all values are distinct,
// so every generation has a distinct image, and a shipment that repeats the
// image its backup last received is exactly the redundant re-ship.
func TestShipGenTracksShippedImage(t *testing.T) {
	net := transport.NewInprocNetwork()
	counter := &countingShipDialer{}
	g := newShipGroup(t, inprocListen(t, net), net.Dialer(),
		func(d transport.Dialer) transport.Dialer { counter.Dialer = d; return counter },
		func(f *fakeInner) Inner { return &racingInner{fakeInner: f} })

	startGen := g.states[g.primary].Generation()
	const writers, writes = 2, 200
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				if err := g.set(fmt.Sprintf("w%d", w), fmt.Sprint(i)); err != nil {
					errs <- err
					return
				}
				if _, err := rpc.DirectCall(context.Background(), g.callDial, g.primary, g.loid, "noop", nil, 2*time.Second); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	moves := g.states[g.primary].Generation() - startGen
	counter.mu.Lock()
	ships := counter.ships
	counter.mu.Unlock()
	if max := moves * uint64(len(g.backups)); uint64(len(ships)) > max {
		t.Fatalf("%d shipments for %d generation moves x %d backups", len(ships), moves, len(g.backups))
	}
	last := map[string][]byte{}
	for i, s := range ships {
		if prev, ok := last[s.endpoint]; ok && bytes.Equal(prev, s.image) {
			t.Fatalf("shipment %d re-sent %s the image it already held (%d shipments, %d moves)",
				i, s.endpoint, len(ships), moves)
		}
		last[s.endpoint] = s.image
	}
	want := g.assertConverged(t)
	for _, ep := range g.backups {
		if !bytes.Equal(last[ep], want) {
			t.Fatalf("last shipment to %s is not the converged state", ep)
		}
	}
}

// TestShipBufferNotRetained pins the ship buffer's release rule: the pooled
// payload goes back to the pool once the last backup call returns, so no
// Dialer may still read it afterwards. With poison checks on, a released
// buffer is overwritten with wire.PoisonByte, so any late read would land
// poison in a backup's state. One backup times out through injected faults
// (lost requests and lost responses) over loopback TCP; the group must still
// converge, and no state may hold a poisoned byte.
func TestShipBufferNotRetained(t *testing.T) {
	wire.SetPoisonChecks(true)
	defer wire.SetPoisonChecks(false)

	tcp := transport.NewTCPDialer()
	defer tcp.Close()
	faults := transport.NewFaults(7)
	listen := func(name string, h transport.Handler) string {
		srv, err := transport.ListenTCP("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return srv.Endpoint()
	}
	g := newShipGroup(t, listen, tcp,
		func(d transport.Dialer) transport.Dialer { return transport.NewFaultDialer(d, faults) }, nil)
	faults.SetEndpoint(g.backups[1], transport.FaultConfig{DropRequest: 0.2, DropResponse: 0.2})

	poisonedBefore := wire.FramePoolStats().Poisoned
	var failed int
	for i := 0; i < 40; i++ {
		err := g.set(fmt.Sprintf("k%d", i%4), fmt.Sprintf("value-%d", i))
		if err != nil {
			if !errors.Is(err, rpc.ErrUnavailable) {
				t.Fatalf("write %d: %v, want success or ErrUnavailable", i, err)
			}
			failed++
		}
	}
	if st := faults.Stats(); st.DroppedRequests+st.DroppedResponses == 0 || failed == 0 {
		t.Fatalf("no injected timeout reached a shipment (faults %+v, failed writes %d)", st, failed)
	}
	for ep, st := range g.states {
		if bytes.IndexByte(st.Encode(), wire.PoisonByte) >= 0 {
			t.Fatalf("state at %s holds a poisoned byte", ep)
		}
	}
	faults.ClearEndpoint(g.backups[1])
	if err := g.set("final", "done"); err != nil {
		t.Fatalf("write after faults cleared: %v", err)
	}
	if wire.FramePoolStats().Poisoned == poisonedBefore {
		t.Fatal("poison mode never released a buffer: the check proves nothing")
	}
	image := g.assertConverged(t)
	if bytes.IndexByte(image, wire.PoisonByte) >= 0 {
		t.Fatal("converged state holds a poisoned byte")
	}
	if v, _ := g.states[g.backups[1]].Get("final"); string(v) != "done" {
		t.Fatalf("faulty backup final value = %q, want done", v)
	}
}
