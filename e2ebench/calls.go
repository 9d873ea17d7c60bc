package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"godcdo/internal/core"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/version"
)

// The invoke and batch workloads call unreplicated DCDOs on one node whose
// only dynamic function returns its arguments reversed.
const (
	invokeObjects = 64
	batchObjects  = 16
	batchSize     = 16
	callArgBytes  = 64
	// payloadVariety is how many distinct seed-derived payloads a workload
	// draws its arguments from.
	payloadVariety = 256
)

type callEnv struct {
	*cluster
	loids []naming.LOID
	dcdos []*core.DCDO
	tails [][]byte
	batch bool
}

func setupInvoke(seed int64, t *tracer) (env, error) {
	return setupCalls(seed, t, invokeObjects, false)
}

func setupBatch(seed int64, t *tracer) (env, error) {
	return setupCalls(seed, t, batchObjects, true)
}

func setupCalls(seed int64, t *tracer, objects int, batch bool) (env, error) {
	cl := &cluster{}
	e := &callEnv{cluster: cl, batch: batch}
	if err := e.build(seed, t, objects); err != nil {
		cl.close()
		return nil, err
	}
	return e, nil
}

func (e *callEnv) build(seed int64, t *tracer, objects int) error {
	node, err := e.startNode("objects")
	if err != nil {
		return err
	}
	reg, fetcher, desc, err := objectType("reverse", naming.LOID{Domain: 3, Class: 9, Instance: 1}, map[string]registry.Func{
		"reverse": func(_ registry.Caller, args []byte) ([]byte, error) { return reverseBytes(args), nil },
	})
	if err != nil {
		return err
	}
	for i := 0; i < objects; i++ {
		loid := naming.LOID{Domain: 3, Class: 1, Instance: uint64(i + 1)}
		obj := core.New(core.Config{LOID: loid, Registry: reg, Fetcher: fetcher})
		if _, err := obj.ApplyDescriptor(context.Background(), desc, version.ID{1}); err != nil {
			return err
		}
		var hosted rpc.Object = obj
		if t != nil {
			hosted = &tracedObject{t: t, obj: obj}
		}
		if _, err := node.HostObject(loid, hosted); err != nil {
			return err
		}
		e.loids = append(e.loids, loid)
		e.dcdos = append(e.dcdos, obj)
	}
	e.startClient(t)
	for _, loid := range e.loids {
		if _, err := e.cache.Resolve(loid); err != nil {
			return fmt.Errorf("warm naming cache: %w", err)
		}
	}
	e.tails = payloadPool(rand.New(rand.NewSource(seed)), payloadVariety, callArgBytes-8)
	return nil
}

func (e *callEnv) newCaller(c *caller) {
	n := 1
	if e.batch {
		n = batchSize
		c.batch = e.client.NewBatch()
	}
	for i := 0; i < n; i++ {
		c.bufs = append(c.bufs, make([]byte, callArgBytes))
	}
}

func (e *callEnv) do(c *caller) (attempted, failed int, err error) {
	if e.batch {
		return e.doBatch(c)
	}
	op, ctx := c.op()
	loid := e.loids[c.rng.Intn(len(e.loids))]
	args := fillArgs(c.bufs[0], op, e.tails[c.rng.Intn(len(e.tails))])
	start := time.Now()
	out, callErr := e.client.InvokeIdempotent(ctx, loid, "reverse", args)
	c.span(kRPC, op, start)
	if callErr != nil {
		c.noteFailure(callErr)
		return 1, 1, nil
	}
	if !isReverse(out, args) {
		return 1, 1, fmt.Errorf("invoke %s: reply is not the reversed arguments", loid)
	}
	return 1, 0, nil
}

// doBatch sends one frame of batchSize idempotent sub-calls; every sub-call
// carries the frame's op id so server-side spans join the frame's trace.
func (e *callEnv) doBatch(c *caller) (attempted, failed int, err error) {
	op, ctx := c.op()
	b := c.batch
	b.Reset()
	for i := 0; i < batchSize; i++ {
		args := fillArgs(c.bufs[i], op, e.tails[c.rng.Intn(len(e.tails))])
		b.AddIdempotent(e.loids[c.rng.Intn(len(e.loids))], "reverse", args)
	}
	start := time.Now()
	results := b.Invoke(ctx)
	c.span(kRPC, op, start)
	for i, r := range results {
		if r.Err != nil {
			c.noteFailure(r.Err)
			failed++
			continue
		}
		if !isReverse(r.Payload, c.bufs[i]) {
			return batchSize, failed + 1, fmt.Errorf("batch sub-call %d: reply is not the reversed arguments", i)
		}
	}
	return batchSize, failed, nil
}

func (e *callEnv) check() error { return nil }

func (e *callEnv) probes() probeSet {
	return probeSet{
		disp:   e.nodes[0].Dispatcher(),
		obj:    e.dcdos[0],
		method: "reverse",
		args:   fillArgs(make([]byte, callArgBytes), 0, e.tails[0]),
		state:  e.dcdos[0].State(),
	}
}
