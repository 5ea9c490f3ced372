package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"scalerpc/internal/sim"
	"scalerpc/internal/stats"
)

// span is one timed interval of a request in virtual time. Spans of one
// request share id.
type span struct {
	name       string
	id         uint64
	start, end sim.Time
}

// virtual holds a run's virtual-time results. They depend only on the seed,
// so every run of one seed must produce an identical value.
type virtual struct {
	// Lat holds the latencies of the operations measured in the window.
	Lat    *stats.Histogram
	Window sim.Duration
	// Attempted and Failed count measured operations; Failed covers
	// abandoned, errored and given-up operations.
	Attempted, Failed uint64
	// Layers holds the per-layer metrics derived from simulator counters.
	Layers map[string]float64
}

// outcome is what a workload returns from one run.
type outcome struct {
	virt virtual
	// ops counts every simulated operation completed during the run phase,
	// warm-up and drain included: the numerator of host_ops_per_s.
	ops   uint64
	spans []span
}

// phase measures the host side of one run: set-up time up to the first
// RunUntil, the wall time and allocations of the RunUntil calls, and, in
// traced runs, a CPU profile of those calls alone.
type phase struct {
	traced bool
	begin  time.Time
	setup  time.Duration
	run    time.Duration
	alloc  uint64
	gcs    uint32
	events uint64
	// profiles holds one pprof CPU profile per RunUntil call.
	profiles [][]byte
}

func newPhase(traced bool) *phase {
	return &phase{traced: traced, begin: time.Now()}
}

// runUntil advances env to until and accounts the host cost. The first
// call ends the set-up phase.
func (p *phase) runUntil(env *sim.Env, until sim.Time) error {
	if p.setup == 0 {
		p.setup = time.Since(p.begin)
		// Start the run phase from a heap holding only the live cluster,
		// so when the collector runs during it depends on the run's own
		// allocations, not on the garbage set-up left behind.
		runtime.GC()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	if p.traced {
		// Raise the rate from the default 100 Hz. StartCPUProfile keeps
		// it, after warning on stderr that the rate was already set.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
	}
	firedBefore := env.Fired()
	start := time.Now()
	env.RunUntil(until)
	p.run += time.Since(start)
	if p.traced {
		pprof.StopCPUProfile()
		p.profiles = append(p.profiles, prof.Bytes())
	}
	p.events += env.Fired() - firedBefore
	runtime.ReadMemStats(&after)
	p.alloc += after.TotalAlloc - before.TotalAlloc
	p.gcs += after.NumGC - before.NumGC
	return nil
}
