package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// subWindows splits every measured round; a round's metric is the median of
// its per-sub-window values, so a burst of load from outside the benchmark
// moves one sub-window, not the result.
const subWindows = 4

// window is one sub-window of a measured phase.
type window struct {
	dur        time.Duration
	ok         uint64
	samples    []uint32 // sorted latencies, ns
	use0, use1 usage
}

// phase is one measured run of the callers.
type phase struct {
	elapsed           time.Duration
	attempted, failed uint64
	windows           []window
	heapMB            float64
	ctr0, ctr1        counters
	failures          map[string]int
	wrong             error
	bgErr             error
}

func (p *phase) okOps() float64 {
	return max(float64(p.attempted-p.failed), 1)
}

func (p *phase) throughput() float64 { return float64(p.attempted-p.failed) / p.elapsed.Seconds() }

// median returns the median over sub-windows of f.
func (p *phase) median(f func(w *window) float64) float64 {
	vs := make([]float64, len(p.windows))
	for i := range p.windows {
		vs[i] = f(&p.windows[i])
	}
	return median(vs)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// build sets the workload up and warms it: the naming cache is filled
// inside setup, then every caller runs warmOps ops, opening connections and
// filling pools. The returned duration covers both.
func build(w workload, seed int64, t *tracer, nextOp *atomic.Uint64) (env, time.Duration, error) {
	start := time.Now()
	e, err := w.setup(seed, t)
	if err != nil {
		return nil, 0, err
	}
	p := drive(e, w.callers, seed+1_000_003, nextOp, t, 0, w.warmOps)
	if p.wrong != nil {
		e.close()
		return nil, 0, fmt.Errorf("warm-up: %w", p.wrong)
	}
	return e, time.Since(start), nil
}

// drive runs the closed-loop callers. With length > 0 they run for length,
// split into subWindows, beside the workload's background work if it has
// any; otherwise each caller runs count ops and no background work starts.
func drive(e env, callers int, seed int64, nextOp *atomic.Uint64, t *tracer, length time.Duration, count int) phase {
	var p phase
	var stopAll atomic.Bool
	var win atomic.Int32
	var wg, bgWG sync.WaitGroup
	stop := make(chan struct{})
	if bg, ok := e.(background); ok && length > 0 {
		bgWG.Add(1)
		go func() {
			defer bgWG.Done()
			p.bgErr = bg.run(stop)
		}()
	}
	cs := make([]*caller, callers)
	wrongs := make([]error, callers)
	finished := make(chan struct{})
	start := time.Now()
	for i := range cs {
		c := &caller{rng: rand.New(rand.NewSource(seed*7919 + int64(i) + 1)), t: t, nextOp: nextOp}
		e.newCaller(c)
		cs[i] = c
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			for n := 0; !stopAll.Load() && (length > 0 || n < count); n++ {
				t0 := time.Now()
				att, failed, err := e.do(c)
				d := time.Since(t0)
				w := win.Load()
				c.attempted += uint64(att)
				c.failed += uint64(failed)
				c.ok[w].Add(uint64(att - failed))
				if failed == att {
					c.lats[w].addMiss()
				} else {
					c.lats[w].add(d)
				}
				if err != nil {
					wrongs[i] = err
					stopAll.Store(true)
				}
			}
		}(i, c)
	}
	go func() {
		wg.Wait()
		close(finished)
	}()
	if length > 0 {
		sub := length / subWindows
		okAt := func() uint64 {
			var n uint64
			for _, c := range cs {
				n += c.ok[win.Load()].Load()
			}
			return n
		}
		p.windows = make([]window, subWindows)
		prev, use := start, readUsage()
	windows:
		for i := range p.windows {
			timer := time.NewTimer(time.Until(start.Add(time.Duration(i+1) * sub)))
			select {
			case <-timer.C:
			case <-finished:
				timer.Stop()
				p.windows = p.windows[:i]
				break windows
			}
			w := &p.windows[i]
			w.ok = okAt()
			win.Add(1)
			now := time.Now()
			w.dur, w.use0, w.use1 = now.Sub(prev), use, readUsage()
			prev, use = now, w.use1
		}
		stopAll.Store(true)
	}
	<-finished
	p.elapsed = time.Since(start)
	close(stop)
	bgWG.Wait()
	p.failures = make(map[string]int)
	for i, c := range cs {
		p.attempted += c.attempted
		p.failed += c.failed
		for m, n := range c.failures {
			p.failures[m] += n
		}
		if wrongs[i] != nil && p.wrong == nil {
			p.wrong = wrongs[i]
		}
	}
	for i := range p.windows {
		ls := make([]*latencies, len(cs))
		for j, c := range cs {
			ls[j] = &c.lats[i]
		}
		p.windows[i].samples = sortedSamples(ls)
	}
	return p
}
