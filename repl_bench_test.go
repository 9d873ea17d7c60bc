package godcdo_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"godcdo/internal/core"
	"godcdo/internal/legion"
	"godcdo/internal/naming"
	"godcdo/internal/objstate"
	"godcdo/internal/registry"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
	"godcdo/internal/workload"
)

// BenchmarkInvokeUnreplicated measures the allocation cost of one in-process
// invoke of a degree-1 (unreplicated) DCDO. `make vet-repl` asserts
// allocs/op stays at the seed baseline: a degree-1 deployment never
// constructs a Replica, so replication must cost nothing when it is off.
func BenchmarkInvokeUnreplicated(b *testing.B) {
	agent := naming.NewAgent(vclock.Real{})
	net := transport.NewInprocNetwork()
	server, err := legion.NewNode(legion.NodeConfig{Name: "repl-off-server", Agent: agent, Inproc: net})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	client, err := legion.NewNode(legion.NodeConfig{Name: "repl-off-client", Agent: agent, Inproc: net})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	reg := registry.New()
	obj, _ := buildDCDO(b, reg, workload.Spec{Prefix: "reploff", Functions: 20, Components: 2}, 1)
	if _, err := server.HostObject(obj.LOID(), obj); err != nil {
		b.Fatal(err)
	}
	target := workload.LeafName("reploff", 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Client().Invoke(context.Background(), obj.LOID(), target, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokeReplicated measures the read-path cost of the same invoke
// against a degree-3 primary/backup group: the call runs through the Replica
// wrapper's role check and state-generation comparison, but a read leaves
// the state generation unchanged, so nothing ships. The delta against
// BenchmarkInvokeUnreplicated is the per-call price of being replicated.
func BenchmarkInvokeReplicated(b *testing.B) {
	agent := naming.NewAgent(vclock.Real{})
	net := transport.NewInprocNetwork()
	client, err := legion.NewNode(legion.NodeConfig{Name: "repl-on-client", Agent: agent, Inproc: net})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	reg := registry.New()
	alloc := naming.NewAllocator(1, 9)
	built, err := workload.Build(reg, alloc, workload.Spec{Prefix: "replon", Functions: 20, Components: 2})
	if err != nil {
		b.Fatal(err)
	}
	loid := naming.LOID{Domain: 1, Class: 1, Instance: 1}

	const degree = 3
	endpoints := make([]string, degree)
	nodes := make([]*legion.Node, degree)
	for i := 0; i < degree; i++ {
		node, err := legion.NewNode(legion.NodeConfig{
			Name: "repl-on-server-" + string(rune('a'+i)), Agent: agent, Inproc: net,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer node.Close()
		nodes[i] = node
		endpoints[i] = node.Endpoint()
	}
	for i, node := range nodes {
		obj := core.New(core.Config{LOID: loid, Registry: reg, Fetcher: built.Fetcher()})
		if _, err := obj.ApplyDescriptor(context.Background(), built.Descriptor, version.ID{1}); err != nil {
			b.Fatal(err)
		}
		role, backups := replica.RoleBackup, []string(nil)
		if i == 0 {
			role, backups = replica.RolePrimary, endpoints[1:]
		}
		node.Dispatcher().Host(loid, replica.New(loid, obj, net.Dialer(), role, 1, backups))
	}
	if _, ok := agent.RegisterSet(loid, naming.ReplicaSet{Primary: endpoints[0], Backups: endpoints[1:]}); !ok {
		b.Fatal("RegisterSet refused")
	}

	target := workload.LeafName("replon", 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Client().Invoke(context.Background(), loid, target, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// kvInner is the smallest replica.Inner with a write: "put" stores its
// argument as the whole value, so each call replaces the state image.
type kvInner struct{ st *objstate.State }

func (k kvInner) State() *objstate.State { return k.st }

func (k kvInner) InvokeMethodCtx(_ context.Context, method string, args []byte) ([]byte, error) {
	if method != "put" {
		return nil, fmt.Errorf("%w: %q", rpc.ErrNoSuchFunction, method)
	}
	k.st.Set("v", args)
	return nil, nil
}

// BenchmarkInvokeReplicatedWrite measures one non-idempotent write to a
// primary/backup group over loopback TCP: the client call to the primary plus
// the synchronous state shipment to each backup. Every write replaces the
// whole state value, so each op ships an image of the given size to
// degree-1 backups (degree 1 ships nothing and is the baseline). The inner
// object is a bare key/value state, so the numbers are replication and
// transport costs, not DFM dispatch.
func BenchmarkInvokeReplicatedWrite(b *testing.B) {
	for _, degree := range []int{1, 2, 3} {
		for _, size := range []struct {
			name  string
			bytes int
		}{{"64B", 64}, {"4KiB", 4 << 10}, {"64KiB", 64 << 10}} {
			b.Run(fmt.Sprintf("degree%d/%s", degree, size.name), func(b *testing.B) {
				benchReplicatedWrite(b, degree, size.bytes)
			})
		}
	}
}

func benchReplicatedWrite(b *testing.B, degree, size int) {
	agent := naming.NewAgent(vclock.Real{})
	loid := naming.LOID{Domain: 1, Class: 1, Instance: 2}
	nodes := make([]*legion.Node, degree)
	endpoints := make([]string, degree)
	for i := range nodes {
		node, err := legion.NewNode(legion.NodeConfig{
			Name: fmt.Sprintf("repl-write-%d", i), Agent: agent, TCPAddr: "127.0.0.1:0",
		})
		if err != nil {
			b.Fatal(err)
		}
		defer node.Close()
		nodes[i], endpoints[i] = node, node.Endpoint()
	}
	shipDialer := transport.NewTCPDialer()
	defer shipDialer.Close()
	for i, node := range nodes {
		role, backups := replica.RoleBackup, []string(nil)
		if i == 0 {
			role, backups = replica.RolePrimary, endpoints[1:]
		}
		node.Dispatcher().Host(loid, replica.New(loid, kvInner{objstate.New()}, shipDialer, role, 1, backups))
	}
	if _, ok := agent.RegisterSet(loid, naming.ReplicaSet{Primary: endpoints[0], Backups: endpoints[1:]}); !ok {
		b.Fatal("RegisterSet refused")
	}
	dialer := transport.NewTCPDialer()
	defer dialer.Close()
	client := rpc.NewClient(naming.NewCache(agent, vclock.Real{}, 0), dialer)
	client.Retry.CallTimeout = 10 * time.Second

	value := make([]byte, size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		value[0] = byte(i) // every write changes the state
		if _, err := client.Invoke(context.Background(), loid, "put", value); err != nil {
			b.Fatal(err)
		}
	}
}
