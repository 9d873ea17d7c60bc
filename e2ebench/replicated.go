package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"godcdo/internal/core"
	"godcdo/internal/naming"
	"godcdo/internal/objstate"
	"godcdo/internal/registry"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/version"
	"godcdo/internal/wire"
)

// The replicated-write workload rewrites a 4 KiB state value of one
// degree-3 primary/backup group and bumps a write counter with every write.
const (
	stateBytes    = 4096
	replicaDegree = 3
	valueVariety  = 16
)

type replEnv struct {
	*cluster
	loid   naming.LOID
	dcdos  []*core.DCDO
	values [][]byte

	acked        atomic.Uint64 // writes acknowledged since the group was built
	failedWrites atomic.Uint64

	seenMu sync.Mutex
	seen   []uint64 // bitset of counter values returned to callers
}

func decodeCount(buf []byte) (uint64, error) {
	n, err := wire.NewDecoder(buf).Uvarint()
	if err != nil {
		return 0, fmt.Errorf("decode counter: %w", err)
	}
	return n, nil
}

func counterOf(st *objstate.State) uint64 {
	raw, ok := st.Get("n")
	if !ok {
		return 0
	}
	n, err := wire.NewDecoder(raw).Uvarint()
	if err != nil {
		return 0
	}
	return n
}

func setupReplicated(seed int64, t *tracer) (env, error) {
	cl := &cluster{}
	e := &replEnv{cluster: cl, loid: naming.LOID{Domain: 4, Class: 1, Instance: 1}}
	if err := e.build(seed, t); err != nil {
		cl.close()
		return nil, err
	}
	return e, nil
}

func (e *replEnv) build(seed int64, t *tracer) error {
	for i := 0; i < replicaDegree; i++ {
		if _, err := e.startNode(fmt.Sprintf("replica%d", i)); err != nil {
			return err
		}
	}
	// The write function's read-modify-write of the counter is its own
	// critical section: dynamic functions run concurrently.
	var mu sync.Mutex
	reg, fetcher, desc, err := objectType("kv", naming.LOID{Domain: 4, Class: 9, Instance: 1}, map[string]registry.Func{
		"write": func(c registry.Caller, args []byte) ([]byte, error) {
			mu.Lock()
			defer mu.Unlock()
			st := c.State()
			enc := wire.NewEncoder(8)
			enc.PutUvarint(counterOf(st) + 1)
			st.Set("v", args)
			st.Set("n", enc.Bytes())
			return enc.Bytes(), nil
		},
		"total": func(c registry.Caller, _ []byte) ([]byte, error) {
			enc := wire.NewEncoder(8)
			enc.PutUvarint(counterOf(c.State()))
			return enc.Bytes(), nil
		},
	})
	if err != nil {
		return err
	}

	endpoints := make([]string, replicaDegree)
	for i, n := range e.nodes {
		endpoints[i] = n.Endpoint()
	}
	for i, n := range e.nodes {
		obj := core.New(core.Config{LOID: e.loid, Registry: reg, Fetcher: fetcher})
		if _, err := obj.ApplyDescriptor(context.Background(), desc, version.ID{1}); err != nil {
			return err
		}
		obj.SetObs(n.Obs())
		var inner replica.Inner = obj
		if t != nil {
			inner = tracedInner{t: t, in: obj}
		}
		role, backups := replica.RoleBackup, []string(nil)
		if i == 0 {
			role, backups = replica.RolePrimary, endpoints[1:]
		}
		rep := replica.New(e.loid, inner, e.shipDialer(t), role, 1, backups)
		var hosted rpc.Object = rep
		if t != nil {
			hosted = &tracedReplica{t: t, rep: rep}
		}
		n.Dispatcher().Host(e.loid, hosted)
		e.dcdos = append(e.dcdos, obj)
	}
	if _, ok := e.agent.RegisterSet(e.loid, naming.ReplicaSet{Primary: endpoints[0], Backups: endpoints[1:]}); !ok {
		return fmt.Errorf("register replica set for %s", e.loid)
	}
	e.startClient(t)
	if _, err := e.cache.Resolve(e.loid); err != nil {
		return fmt.Errorf("warm naming cache: %w", err)
	}
	e.values = payloadPool(rand.New(rand.NewSource(seed)), valueVariety, stateBytes)
	return nil
}

func (e *replEnv) newCaller(c *caller) { c.bufs = [][]byte{make([]byte, stateBytes)} }

func (e *replEnv) do(c *caller) (attempted, failed int, err error) {
	op, ctx := c.op()
	args := fillArgs(c.bufs[0], op, e.values[c.rng.Intn(len(e.values))][8:])
	start := time.Now()
	out, callErr := e.client.Invoke(ctx, e.loid, "write", args)
	c.span(kRPC, op, start)
	if callErr != nil {
		e.failedWrites.Add(1)
		c.noteFailure(callErr)
		return 1, 1, nil
	}
	n, derr := decodeCount(out)
	if derr != nil {
		return 1, 1, fmt.Errorf("write reply: %w", derr)
	}
	if !e.markSeen(n) {
		return 1, 1, fmt.Errorf("write counter value %d acknowledged twice", n)
	}
	e.acked.Add(1)
	return 1, 0, nil
}

// markSeen records counter value n and reports whether it was new.
func (e *replEnv) markSeen(n uint64) bool {
	e.seenMu.Lock()
	defer e.seenMu.Unlock()
	word := int(n / 64)
	for len(e.seen) <= word {
		e.seen = append(e.seen, 0)
	}
	bit := uint64(1) << (n % 64)
	if e.seen[word]&bit != 0 {
		return false
	}
	e.seen[word] |= bit
	return true
}

// check verifies that the counter equals the acknowledged writes, that each
// value 1..n was acknowledged exactly once, and that the primary and both
// backups hold byte-identical state.
func (e *replEnv) check() error {
	n := counterOf(e.dcdos[0].State())
	acked, failed := e.acked.Load(), e.failedWrites.Load()
	if n < acked || n > acked+failed {
		return fmt.Errorf("write counter %d, want %d acknowledged writes (+%d that failed)", n, acked, failed)
	}
	if failed == 0 {
		e.seenMu.Lock()
		for v := uint64(1); v <= n; v++ {
			if e.seen[v/64]&(1<<(v%64)) == 0 {
				e.seenMu.Unlock()
				return fmt.Errorf("counter value %d was never acknowledged", v)
			}
		}
		e.seenMu.Unlock()
	}
	img := e.dcdos[0].State().Encode()
	for i := 1; i < len(e.dcdos); i++ {
		if !bytes.Equal(img, e.dcdos[i].State().Encode()) {
			return fmt.Errorf("backup %d state differs from the primary's", i)
		}
	}
	return nil
}

func (e *replEnv) probes() probeSet {
	return probeSet{
		disp:   e.nodes[0].Dispatcher(),
		obj:    e.dcdos[0],
		method: "total",
		state:  e.dcdos[0].State(),
	}
}
