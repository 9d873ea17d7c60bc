// Command e2ebench is godcdo's end-to-end benchmark. It runs one workload
// against real godcdo nodes in this process, reached over loopback TCP with
// no injected delay, checks every answer, and prints its metrics as one
// JSON object on the last line of standard output.
//
//	e2ebench -workload invoke -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it runs
// the workload twice for half the time each — untraced, then with spans
// recorded around every call into each layer's public interfaces — and
// reports the per-layer metrics plus the tracing overhead. layers.json maps
// each layer metric to the end-to-end metric and workload it should move.
// run.sh builds and runs it from a checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"godcdo/internal/core"
	"godcdo/internal/objstate"
	"godcdo/internal/rpc"
)

// env is one built workload: its cluster, objects and caller logic.
type env interface {
	base() *cluster
	newCaller(c *caller)
	// do runs one op for c and reports how many ops it attempted and how
	// many failed; a non-nil error is a wrong answer.
	do(c *caller) (attempted, failed int, err error)
	// check verifies the workload's end state after the callers stop.
	check() error
	probes() probeSet
	close()
}

// background is implemented by workloads that run work beside the callers.
type background interface {
	run(stop <-chan struct{}) error
}

// extraReporter is implemented by workloads with metrics of their own.
type extraReporter interface {
	extra(m map[string]float64) error
}

// probeSet names what the in-process layer timings run against.
type probeSet struct {
	disp       *rpc.Dispatcher
	obj        *core.DCDO
	method     string
	args       []byte
	state      *objstate.State
	journalDir string
}

type workload struct {
	callers int
	// warmOps is how many ops each caller runs during set-up, after the
	// naming cache is filled and before timing starts.
	warmOps int
	setup   func(seed int64, t *tracer) (env, error)
}

var workloads = map[string]workload{
	"invoke":           {callers: 2, warmOps: 200, setup: setupInvoke},
	"batch":            {callers: 2, warmOps: 50, setup: setupBatch},
	"replicated-write": {callers: 2, warmOps: 100, setup: setupReplicated},
	"evolve":           {callers: 1, warmOps: 200, setup: setupEvolve},
	"evolve-quiesced":  {callers: 1, warmOps: 200, setup: setupEvolveQuiesced},
}

// rounds is how many fresh set-ups a -trace 0 run measures.
const rounds = 5

// caller is one closed-loop caller: it waits for each reply before sending
// its next call.
type caller struct {
	rng    *rand.Rand
	t      *tracer
	nextOp *atomic.Uint64
	// lats and ok are indexed by the sub-window an op completed in; ops
	// completing after the last one land in the spare final slot.
	lats [subWindows + 1]latencies
	ok   [subWindows + 1]atomic.Uint64

	attempted, failed uint64
	failures          map[string]int // error text -> count

	bufs  [][]byte
	batch *rpc.Batch
}

// op allocates the next op id and the context its calls carry.
func (c *caller) op() (uint64, context.Context) {
	op := c.nextOp.Add(1)
	if c.t == nil {
		return op, context.Background()
	}
	return op, withOp(context.Background(), op)
}

func (c *caller) span(k spanKind, op uint64, start time.Time) {
	if c.t != nil && c.t.on.Load() {
		c.t.record(k, op, start)
	}
}

func (c *caller) noteFailure(err error) {
	if c.failures == nil {
		c.failures = make(map[string]int)
	}
	c.failures[err.Error()]++
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: invoke, batch, replicated-write, evolve or evolve-quiesced")
	seed := fs.Int64("seed", 1, "workload seed: picks target LOIDs, payload bytes and operation order")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	traceDir := fs.String("trace-dir", "", "directory the traced run writes its spans to (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	fmt.Printf("e2ebench: workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceMode)
	host, err := hostInfo()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	hb, _ := json.Marshal(host)
	fmt.Printf("host: %s\n", hb)

	dur := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traceMode == 0 {
		res, err = endToEnd(w, *seed, dur)
	} else {
		spanFile := ""
		if *traceDir != "" {
			spanFile = filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", *name, *seed))
		}
		res, err = perLayer(w, *seed, dur, spanFile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	return res.print(*traceMode == 0)
}

// result is what one run prints.
type result struct {
	correct           bool
	problems          []string
	attempted, failed uint64
	failures          map[string]int
	metrics           map[string]float64
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) print(e2e bool) int {
	defs := perLayerMetrics
	if e2e {
		defs = endToEndMetrics
	}
	for _, p := range r.problems {
		fmt.Printf("CORRECTNESS VIOLATION: %s\n", p)
	}
	msgs := make([]string, 0, len(r.failures))
	for m := range r.failures {
		msgs = append(msgs, m)
	}
	sort.Strings(msgs)
	for _, m := range msgs {
		fmt.Printf("failed op (%d×): %s\n", r.failures[m], m)
	}
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted uint64                     `json:"attempted"`
		Failed    uint64                     `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]json.RawMessage{}}
	for _, d := range defs {
		v := r.metrics[d.name]
		fmt.Printf("  %-36s %14.6g %s\n", d.name, v, d.unit)
		raw, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{v, d.unit})
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 2
		}
		out.Metrics[d.name] = raw
	}
	if e2e {
		// Reported here, not in the JSON: throughput and tail latency repeat
		// too poorly from run to run on a shared host to bound, and the
		// others are zero on workloads with no failures or no manager
		// passes (see layers.json).
		for _, n := range []string{"throughput_ops_s", "latency_p90_us", "latency_p99_us", "failed_ratio", "evolve_pass_ms", "evolve_instances_s"} {
			fmt.Printf("  %-36s %14.6g\n", n, r.metrics[n])
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !r.correct {
		return 1
	}
	return 0
}
