package bench

import (
	"encoding/json"
	"fmt"
	"time"

	"scalerpc/internal/cluster"
	"scalerpc/internal/loadgen"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
)

func init() {
	register("simspeed", "DES kernel raw speed: wall-clock events/sec driving a full ScaleRPC cluster", runSimSpeed)
}

// SimSpeedGate is the committed floor for the macro events/sec number,
// loaded from results/BENCH_simspeed.json by scalebench's -simspeed-gate
// flag. The CI smoke job fails when the current run regresses more than 20%
// below it. The floor is set well under the development-machine measurement
// to absorb runner-to-runner hardware variance; the normalized macro cost
// (calibration events per macro event) is recorded alongside for diagnosing
// whether a regression is machine speed or scheduler work.
type SimSpeedGate struct {
	EventsPerSec float64 `json:"gate_events_per_sec"`
}

// simSpeedStats is the machine-readable BENCH_simspeed.json payload.
type simSpeedStats struct {
	Schema    string   `json:"schema"`
	Scheduler string   `json:"scheduler"`
	GoMaxProc int      `json:"gomaxprocs,omitempty"`
	Macro     macroRun `json:"macro"`
	// Calib is a pure scheduler self-chained callback loop: it measures the
	// kernel's raw dispatch rate on this machine, so macro regressions can be
	// normalized against hardware speed.
	Calib calibRun `json:"calib"`
	// NormalizedMacroCost is calib events/sec divided by macro events/sec:
	// how many raw-dispatch-equivalents one macro (full cluster) event costs.
	// Unlike absolute events/sec this is stable across machines.
	NormalizedMacroCost float64 `json:"normalized_macro_cost"`
	// Baseline records the pre-refactor heap-scheduler measurement this PR
	// improved on, taken on the same machine as Macro at commit time.
	Baseline *baselineRec `json:"baseline_pre_refactor,omitempty"`
	// GateEventsPerSec is the regression floor for CI (see SimSpeedGate).
	GateEventsPerSec float64 `json:"gate_events_per_sec"`
}

type macroRun struct {
	Clients      int     `json:"clients"`
	OfferedRate  float64 `json:"offered_rate"`
	VirtualNs    int64   `json:"virtual_ns"`
	WallNs       int64   `json:"wall_ns"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	RPCsDone     uint64  `json:"rpcs_completed"`
	Callbacks    uint64  `json:"callback_events"`
	ProcWakes    uint64  `json:"proc_wake_events"`
	// WakesByTag breaks proc wakes down by source:
	// [start, timer, signal, queue, resource].
	WakesByTag [5]uint64 `json:"proc_wakes_by_tag"`
	// SpeedRatio is virtual ns simulated per wall ns spent.
	SpeedRatio float64 `json:"speed_ratio"`
	// Reps is how many times the identical scenario ran; WallNs is the
	// minimum (least-interference) wall time and all virtual results —
	// event count, RPC completions, final clock — matched across reps.
	Reps int `json:"reps"`
	// BaselineEquivEventsPerSec normalizes wall time to the scenario's
	// PRE-refactor event decomposition. The refactor deliberately removed
	// events (batched CPU charging collapses per-slot charge sleeps), so
	// raw events/sec undercounts progress: the same virtual scenario now
	// takes ~3.3x fewer events. This metric divides the baseline's event
	// count for the identical scenario by the current wall time — i.e. how
	// fast the refactored kernel chews through the same virtual work.
	BaselineEquivEventsPerSec float64 `json:"baseline_equiv_events_per_sec"`
	// SpeedupVsBaseline is baseline wall time / current wall time for the
	// identical scenario (equals BaselineEquivEventsPerSec / baseline
	// events/sec by construction).
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline"`
}

type calibRun struct {
	Events       uint64  `json:"events"`
	WallNs       int64   `json:"wall_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	// ProcWakesPerSec measures a process resume that crosses goroutines —
	// one process blocking and handing the baton to another — the other
	// kernel hot path (10k loadgen clients are all Procs).
	ProcWakesPerSec float64 `json:"proc_wakes_per_sec"`
	// SelfResumesPerSec measures a process whose own wake is the next due
	// event: it keeps the baton and resumes with no goroutine switch.
	SelfResumesPerSec float64 `json:"self_resumes_per_sec"`
}

type baselineRec struct {
	EventsPerSec float64 `json:"events_per_sec"`
	Events       uint64  `json:"events"`
	WallNs       int64   `json:"wall_ns"`
	Note         string  `json:"note"`
}

// Pre-refactor measurement of the identical macro scenario (256 clients,
// 2 Mops offered, full windows, seed 1), taken on the development machine
// immediately before this refactor landed: binary-heap scheduler, per-slot
// CPU charge sleeps, per-packet allocations. Kept in code so every
// regenerated BENCH_simspeed.json carries the comparison. Note the event
// count: the old charging discipline decomposed the same virtual work into
// 3.3x more events, which is why current raw events/sec is NOT comparable
// to preRefactorEventsPerSec — compare baseline_equiv_events_per_sec (or
// equivalently speedup_vs_baseline) instead.
const (
	preRefactorEvents       = 3_047_707
	preRefactorWallNs       = 3_505_000_000
	preRefactorEventsPerSec = float64(preRefactorEvents) / (float64(preRefactorWallNs) / 1e9)
)

// simSpeedGateFloor is the committed CI floor for RAW macro events/sec:
// conservative (≈1/4 of the post-refactor development-machine measurement,
// which runs 1.3-1.5 M events/s) so slower CI runners pass while a real
// scheduler regression still trips the -simspeed-gate comparison on
// like-for-like hardware.
const simSpeedGateFloor = 0.35e6

// runSimSpeedMacro executes the macro scenario macroReps times and reports
// the minimum wall time (the least-interference repetition; the virtual
// results are deterministic and are cross-checked to match across reps).
func runSimSpeedMacro(opts Options) (macroRun, *loadgen.Report) {
	best, rep := runSimSpeedMacroOnce(opts)
	for i := 1; i < macroReps; i++ {
		m, r := runSimSpeedMacroOnce(opts)
		if m.Events != best.Events || m.RPCsDone != best.RPCsDone || m.VirtualNs != best.VirtualNs {
			panic(fmt.Sprintf("simspeed: macro run not deterministic across reps: events %d vs %d, rpcs %d vs %d, end %d vs %d",
				m.Events, best.Events, m.RPCsDone, best.RPCsDone, m.VirtualNs, best.VirtualNs))
		}
		if m.WallNs < best.WallNs {
			best, rep = m, r
		}
	}
	best.Reps = macroReps
	best.BaselineEquivEventsPerSec = float64(preRefactorEvents) / (float64(best.WallNs) / 1e9)
	best.SpeedupVsBaseline = float64(preRefactorWallNs) / float64(best.WallNs)
	return best, rep
}

// macroReps is how many times the macro scenario repeats; wall time is
// min-of-reps so one noisy neighbor doesn't pollute the committed numbers.
const macroReps = 3

// runSimSpeedMacroOnce executes the macro scenario once and measures it.
func runSimSpeedMacroOnce(opts Options) (macroRun, *loadgen.Report) {
	const clients = 256
	const clientHosts = 8
	const offered = 2_000_000.0

	c := cluster.New(cluster.Default(1 + clientHosts))
	defer c.Close()
	opts.instrument(c)
	srv := c.Hosts[0]

	s := scalerpc.NewServer(srv, scalerpc.DefaultServerConfig())
	s.Register(1, echoHandler)
	s.Start()

	w := loadgen.Workload{
		Name:        "simspeed",
		OfferedRate: offered,
		Arrival:     loadgen.ArrivalPoisson,
		Warmup:      opts.Warmup,
		Duration:    opts.Duration,
		Seed:        opts.Seed,
		Handler:     1,
		Tenants:     []loadgen.TenantSpec{{Name: "all", Size: loadgen.FixedSize(32)}},
	}
	cl := make([]loadgen.Client, clients)
	for i := range cl {
		ch := c.Hosts[1+i%clientHosts]
		sig := sim.NewSignal(c.Env)
		cl[i] = loadgen.Client{Host: ch, Conn: s.Connect(ch, sig), Sig: sig}
	}
	runner := loadgen.NewRunner(w, cl, c.Telemetry.UniqueScope("loadgen"))
	runner.Start(c.Env)

	start := time.Now()
	end := c.Env.RunUntil(runner.DrainDeadline() + 100*sim.Microsecond)
	wall := time.Since(start)

	rep := runner.Report()
	cb, pr := c.Env.FiredBreakdown()
	m := macroRun{
		Callbacks:   cb,
		ProcWakes:   pr[0] + pr[1] + pr[2] + pr[3] + pr[4],
		WakesByTag:  pr,
		Clients:     clients,
		OfferedRate: offered,
		VirtualNs:   int64(end),
		WallNs:      wall.Nanoseconds(),
		Events:      c.Env.Fired(),
		RPCsDone:    rep.Completed,
	}
	if m.WallNs > 0 {
		m.EventsPerSec = float64(m.Events) / wall.Seconds()
		m.SpeedRatio = float64(m.VirtualNs) / float64(m.WallNs)
	}
	return m, rep
}

// runSimSpeedCalib measures the kernel's raw dispatch rate: a self-chained
// callback loop (pure scheduler, empty handlers), two processes whose
// Sleep(1) wakes alternate (each resume a goroutine switch), and one
// process sleeping alone (each resume a self-resume).
func runSimSpeedCalib() calibRun {
	const n = 2_000_000
	e := sim.NewEnv()
	left := n
	var fn func()
	fn = func() {
		left--
		if left > 0 {
			e.At(1, fn)
		}
	}
	e.At(1, fn)
	start := time.Now()
	e.Run()
	wall := time.Since(start)

	const wakes = 200_000
	cr := calibRun{Events: n, WallNs: wall.Nanoseconds()}
	if wall > 0 {
		cr.EventsPerSec = float64(n) / wall.Seconds()
	}
	cr.ProcWakesPerSec = procWakesPerSec(2, wakes)
	cr.SelfResumesPerSec = procWakesPerSec(1, wakes)
	return cr
}

// procWakesPerSec runs procs processes that each Sleep(1) wakes/procs times
// and returns process resumes per wall second.
func procWakesPerSec(procs, wakes int) float64 {
	e := sim.NewEnv()
	defer e.Close()
	for i := 0; i < procs; i++ {
		e.Spawn("calib", func(p *sim.Proc) {
			for j := 0; j < wakes/procs; j++ {
				p.Sleep(1)
			}
		})
	}
	start := time.Now()
	e.Run()
	if wall := time.Since(start); wall > 0 {
		return float64(wakes) / wall.Seconds()
	}
	return 0
}

func runSimSpeed(opts Options) *Result {
	r := &Result{
		ID: "simspeed", Title: "Simulator raw speed: wall-clock events/sec (macro ScaleRPC cluster + kernel calibration)",
		XLabel: "metric (index)", YLabel: "millions/sec",
	}
	macro, rep := runSimSpeedMacro(opts)
	calib := runSimSpeedCalib()

	stats := simSpeedStats{
		Schema:    "simspeed/v1",
		Scheduler: sim.SchedulerName(),
		Macro:     macro,
		Calib:     calib,
		Baseline: &baselineRec{
			EventsPerSec: preRefactorEventsPerSec,
			Events:       preRefactorEvents,
			WallNs:       preRefactorWallNs,
			Note:         "container/heap scheduler, per-slot charge sleeps, per-packet allocations (pre-refactor), identical scenario",
		},
		GateEventsPerSec: simSpeedGateFloor,
	}
	if macro.EventsPerSec > 0 {
		stats.NormalizedMacroCost = calib.EventsPerSec / macro.EventsPerSec
	}
	b, err := json.MarshalIndent(&stats, "", " ")
	if err != nil {
		panic(err)
	}
	r.AddArtifact("BENCH_simspeed.json", b)

	r.AddPoint("macro-events-per-sec", 0, macro.EventsPerSec/1e6)
	r.AddPoint("calib-events-per-sec", 1, calib.EventsPerSec/1e6)
	r.AddPoint("proc-wakes-per-sec", 2, calib.ProcWakesPerSec/1e6)
	r.AddPoint("self-resumes-per-sec", 3, calib.SelfResumesPerSec/1e6)
	r.Notef("macro: %d clients, %.0f events (%d callbacks, %d proc wakes) in %.1f ms wall (min of %d reps) = %.2f M events/s, %d RPCs",
		macro.Clients, float64(macro.Events), macro.Callbacks, macro.ProcWakes, float64(macro.WallNs)/1e6, macro.Reps, macro.EventsPerSec/1e6, macro.RPCsDone)
	r.Notef("calib: raw dispatch %.2f M events/s, proc wake %.2f M/s, self-resume %.2f M/s; normalized macro cost %.2f dispatch-equivalents/event",
		calib.EventsPerSec/1e6, calib.ProcWakesPerSec/1e6, calib.SelfResumesPerSec/1e6, stats.NormalizedMacroCost)
	r.Notef("vs pre-refactor baseline (same scenario: %d events in %.0f ms): %.2f M baseline-equivalent events/s vs %.2f M = %.1fx speedup",
		int64(preRefactorEvents), float64(preRefactorWallNs)/1e6, macro.BaselineEquivEventsPerSec/1e6, preRefactorEventsPerSec/1e6, macro.SpeedupVsBaseline)
	if !rep.Pass {
		r.Note("warning: macro run failed its (trivial) completion check; events/sec may not reflect steady state")
	}
	return r
}
