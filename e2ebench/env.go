package main

import (
	"encoding/binary"
	"math/rand"
	"sort"

	"godcdo/internal/component"
	"godcdo/internal/dfm"
	"godcdo/internal/legion"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
)

// nodeObs is dcdo-node's observability plane at its flag defaults: trace
// sample 1 (every trace kept) and the flight recorder on.
func nodeObs() *obs.Obs {
	return obs.NewWithOptions(obs.Options{
		SampleRate:      1,
		FlightCapacity:  obs.DefaultFlightCapacity,
		FlightThreshold: obs.DefaultFlightThreshold,
	})
}

// cluster is the set of TCP nodes one workload runs on plus the benchmark's
// own client. The first node serves the binding agent, exactly as a
// dcdo-node started without -agent does; later nodes resolve through it.
type cluster struct {
	agent  *naming.Agent
	nodes  []*legion.Node
	closes []func() error

	client       *rpc.Client
	clientObs    *obs.Obs
	clientDialer *transport.TCPDialer
	cache        *naming.Cache
}

// startNode mirrors dcdo-node's startNode with every tuning flag at its
// default: a loopback TCP listener, the obs service, and either a local
// binding agent (first node) or a remote one.
func (c *cluster) startNode(name string) (*legion.Node, error) {
	var authority naming.Authority
	if len(c.nodes) == 0 {
		c.agent = naming.NewAgent(vclock.Real{})
		authority = c.agent
	} else {
		d := transport.NewTCPDialer()
		c.closes = append(c.closes, d.Close)
		authority = &rpc.RemoteAgent{Dialer: d, Endpoint: c.nodes[0].Endpoint()}
	}
	node, err := legion.NewNode(legion.NodeConfig{
		Name:    name,
		Agent:   authority,
		TCPAddr: "127.0.0.1:0",
		Obs:     nodeObs(),
	})
	if err != nil {
		return nil, err
	}
	c.nodes = append(c.nodes, node)
	node.Dispatcher().Host(rpc.ObsLOID, &rpc.ObsService{Obs: node.Obs()})
	if len(c.nodes) == 1 {
		if _, err := node.HostObject(rpc.AgentLOID, &rpc.AgentService{Agent: c.agent}); err != nil {
			return nil, err
		}
	}
	return node, nil
}

// startClient builds the benchmark's caller-side client the way a node
// builds its own: a naming cache resolving through the remote binding
// agent, one TCP connection per endpoint, and the node-default obs plane.
// With t set, the client's Resolver and Dialer are wrapped for tracing.
func (c *cluster) startClient(t *tracer) {
	agentDialer := transport.NewTCPDialer()
	c.closes = append(c.closes, agentDialer.Close)
	var resolver naming.Resolver = &rpc.RemoteAgent{Dialer: agentDialer, Endpoint: c.nodes[0].Endpoint()}
	c.clientDialer = transport.NewTCPDialer()
	c.closes = append(c.closes, c.clientDialer.Close)
	var dialer transport.Dialer = c.clientDialer
	if t != nil {
		resolver = tracedResolver{t: t, r: resolver}
		dialer = &tracedDialer{t: t, d: dialer, kind: kTransport}
	}
	c.cache = naming.NewCache(resolver, vclock.Real{}, 0)
	c.client = rpc.NewClient(c.cache, dialer)
	c.clientObs = nodeObs()
	c.client.Tracer = c.clientObs.Tracer
	c.client.ObserveStages(c.clientObs.Metrics)
	c.clientObs.Metrics.RegisterCounters("client.bench", c.client.Metrics())
}

// shipDialer returns a fresh TCP dialer for a replica's state shipments,
// wrapped when tracing.
func (c *cluster) shipDialer(t *tracer) transport.Dialer {
	d := transport.NewTCPDialer()
	c.closes = append(c.closes, d.Close)
	if t != nil {
		return &tracedDialer{t: t, d: d, kind: kShip}
	}
	return d
}

func (c *cluster) base() *cluster { return c }

func (c *cluster) close() {
	for i := len(c.closes) - 1; i >= 0; i-- {
		_ = c.closes[i]()
	}
	for _, n := range c.nodes {
		_ = n.Close()
	}
}

func (c *cluster) obsPlanes() []*obs.Obs {
	out := []*obs.Obs{c.clientObs}
	for _, n := range c.nodes {
		out = append(out, n.Obs())
	}
	return out
}

func (c *cluster) dispatchers() []*rpc.Dispatcher {
	out := make([]*rpc.Dispatcher, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n.Dispatcher())
	}
	return out
}

// objectType registers one component, id, holding fns and returns the
// fetcher serving it and the descriptor of the version enabling every
// function — the object type of the invoke, batch and replicated-write
// DCDOs, whose components are already cached at their host.
func objectType(id string, ico naming.LOID, fns map[string]registry.Func) (*registry.Registry, component.Fetcher, *dfm.Descriptor, error) {
	const codeSize = 4096
	ref := id + ":1"
	reg := registry.New()
	if _, err := reg.Register(ref, registry.NativeImplType, fns); err != nil {
		return nil, nil, nil, err
	}
	desc := dfm.NewDescriptor()
	desc.Components[id] = dfm.ComponentRef{ICO: ico, CodeRef: ref, Impl: registry.NativeImplType, CodeSize: codeSize, Revision: 1}
	names := make([]string, 0, len(fns))
	for name := range fns {
		names = append(names, name)
	}
	sort.Strings(names)
	decls := make([]component.FunctionDecl, 0, len(fns))
	for _, name := range names {
		decls = append(decls, component.FunctionDecl{Name: name, Exported: true})
		desc.Entries = append(desc.Entries, dfm.EntryDesc{Function: name, Component: id, Exported: true, Enabled: true})
	}
	comp, err := component.NewSynthetic(component.Descriptor{
		ID: id, Revision: 1, CodeRef: ref,
		Impl: registry.NativeImplType, CodeSize: codeSize, Functions: decls,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	fetcher := component.FetcherFunc(func(naming.LOID) (*component.Component, error) { return comp, nil })
	return reg, fetcher, desc, nil
}

// payloadPool returns n distinct seed-derived payloads of size bytes.
func payloadPool(rng *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// fillArgs writes op into the first 8 bytes of buf and tail after it.
func fillArgs(buf []byte, op uint64, tail []byte) []byte {
	binary.LittleEndian.PutUint64(buf, op)
	copy(buf[8:], tail)
	return buf[:8+len(tail)]
}

// reverseBytes is the invoke and batch workloads' dynamic function.
func reverseBytes(args []byte) []byte {
	out := make([]byte, len(args))
	for i, b := range args {
		out[len(args)-1-i] = b
	}
	return out
}

func isReverse(out, args []byte) bool {
	if len(out) != len(args) {
		return false
	}
	for i, b := range args {
		if out[len(args)-1-i] != b {
			return false
		}
	}
	return true
}
