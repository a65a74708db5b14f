package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc performs operation seq of a workload's op sequence on behalf of
// one client and returns whether it was a write, its latency at the caller
// and its error. The op a sequence number stands for depends only on the
// seed, never on timing.
type opFunc func(client int, seq int64) (write bool, lat time.Duration, err error)

// window is the result of one timed window.
type window struct {
	searchMs, writeMs []float64
	attempted         int
	wall              time.Duration
	// mallocs, allocBytes and gcs are runtime.MemStats deltas over the
	// window.
	mallocs, allocBytes, gcs uint64
}

// closedLoop runs clients closed-loop clients: each issues its next op
// only after the previous one returned. The window lasts seconds; when
// minSearches > 0 it is extended until that many searches have completed,
// so the tail percentile has enough samples beyond it, but never past
// maxExtension times the window. Operations count in o.attempted and
// errors in o.failed.
func closedLoop(o *outcome, clients int, seconds float64, minSearches int, do opFunc) *window {
	w := &window{}
	var (
		mu      sync.Mutex
		next    atomic.Int64
		wg      sync.WaitGroup
		nSearch atomic.Int64
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	hardStop := start.Add(time.Duration(seconds * maxExtension * float64(time.Second)))
	done := func() bool {
		now := time.Now()
		if now.Before(deadline) {
			return false
		}
		return int(nSearch.Load()) >= minSearches || !now.Before(hardStop)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !done() {
				seq := next.Add(1) - 1
				write, lat, err := do(c, seq)
				ms := float64(lat.Nanoseconds()) / 1e6
				mu.Lock()
				w.attempted++
				switch {
				case err != nil:
					o.opError("op %d: %v", seq, err)
				case write:
					w.writeMs = append(w.writeMs, ms)
				default:
					w.searchMs = append(w.searchMs, ms)
					nSearch.Add(1)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.wall = time.Since(start)
	o.attempted += w.attempted
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	w.gcs = uint64(after.NumGC - before.NumGC)
	return w
}

// maxExtension bounds how far closedLoop may stretch a window to collect
// minSearches, as a multiple of the requested length.
const maxExtension = 4

// timedWindow runs the workload's measured window. Untraced, it is the
// whole run and needs enough searches for the tail percentile; traced, the
// run is split into an untraced half (for the overhead ratio and the
// runtime counters) and a traced half that the caller runs afterwards.
func timedWindow(cfg *config, o *outcome, clients int, do opFunc) *window {
	if cfg.trace {
		w := closedLoop(o, clients, cfg.seconds/2, 0, do)
		runtimeLayers(o, w)
		o.searchMs, o.writeMs = w.searchMs, w.writeMs
		return w
	}
	w := closedLoop(o, clients, cfg.seconds, samplesFor(tailQuantile), do)
	o.searchMs, o.writeMs, o.wall = w.searchMs, w.writeMs, w.wall
	return w
}

// runtimeLayers fills the runtime.* and write latency metrics of a traced
// run from its untraced window.
func runtimeLayers(o *outcome, w *window) {
	n := float64(max(len(w.searchMs), 1))
	ops := float64(max(len(w.searchMs)+len(w.writeMs), 1))
	o.layers["runtime.allocs_per_search"] = float64(w.mallocs) / n
	o.layers["runtime.alloc_bytes_per_search"] = float64(w.allocBytes) / n
	o.layers["runtime.gc_cycles_per_1k_ops"] = float64(w.gcs) * 1000 / ops
	o.layers["write_p50_ms"] = percentile(w.writeMs, 0.50)
	o.layers["write_p90_ms"] = percentile(w.writeMs, 0.90)
}

// tracedTotals fills the trace.* metrics from a traced window's spans
// (root spans named rootName are the searches) and the untraced window.
func tracedTotals(o *outcome, b *layerBreakdown, rootName string, untraced *window) {
	traced := b.meanMs(rootName)
	o.layers["trace.ms_per_search"] = traced
	if m := mean(untraced.searchMs); m > 0 {
		o.layers["trace.overhead_ratio"] = traced / m
	}
	o.layers["trace.unaccounted_ratio"] = b.unaccounted(rootName)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
