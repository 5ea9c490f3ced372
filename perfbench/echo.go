package main

import (
	"fmt"

	"scalerpc/internal/baseline/rawrpc"
	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/loadgen"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/scalerpc"
	"scalerpc/internal/sim"
)

// echoSpec shapes one open-loop echo workload: a Poisson stream of 32 B
// requests spread over a client population, each client an open-loop
// loadgen process holding one connection to a server on host 0.
type echoSpec struct {
	transport   string // "scalerpc" or "rawwrite"
	clients     int
	clientHosts int
	rate        float64 // total offered requests per virtual second
	warmup      sim.Duration
	window      sim.Duration
}

// crowdSpec: 400 ScaleRPC clients form 10 groups of 40, so one rotation
// of 100 µs slices takes 1 ms, and at 5,000 requests per client per second
// each slice serves about 200 requests, as 2,000 clients at 1,000 each
// would over a 5 ms rotation. At 2,000 clients the heap passes 600 MB and
// host speed spread 0.34-0.42 (quartile distance over median) across seeds
// on a shared 2-vCPU machine; 400 clients keep it near rawwrite's.
var crowdSpec = echoSpec{
	transport: "scalerpc", clients: 400, clientHosts: 8, rate: 2_000_000,
	warmup: sim.Millisecond, window: 10 * sim.Millisecond,
}

// rawwriteSpec: 400 per-client RC connections, each with a static 16 x 4 KB
// zone, against the server NIC's 64-entry QPC cache and ~3 MB of DDIO ways.
// The server runs close to saturation, so latencies spread evenly from 5 to
// 55 µs and the median moves with each run's arrivals; the benchmark pools
// more run seeds for it than for the other workloads.
var rawwriteSpec = echoSpec{
	transport: "rawwrite", clients: 400, clientHosts: 8, rate: 2_000_000,
	warmup: sim.Millisecond, window: 8 * sim.Millisecond,
}

// echoKeys is the key space each request samples a key from; the key is
// what the echo check compares, so responses cannot be confused.
const echoKeys = 256

func runEcho(sp echoSpec, seed uint64, ph *phase) (*outcome, error) {
	ccfg := cluster.Default(1 + sp.clientHosts)
	ccfg.Seed = seed
	c := cluster.New(ccfg)
	defer c.Close()
	es := newEchoState(ph.traced)
	srv := c.Hosts[0]

	w := loadgen.Workload{
		Name:        sp.transport,
		OfferedRate: sp.rate,
		Arrival:     loadgen.ArrivalPoisson,
		Handler:     1,
		Warmup:      sp.warmup,
		Duration:    sp.window,
		Seed:        seed ^ 0x9e3779b97f4a7c15,
		Tenants: []loadgen.TenantSpec{{
			Name: "echo", Keys: echoKeys, KeySkew: 0.5, Size: loadgen.FixedSize(32),
		}},
	}
	var connect func(ch *host.Host, sig *sim.Signal) rpccore.Conn
	switch sp.transport {
	case "scalerpc":
		cfg := scalerpc.DefaultServerConfig()
		cfg.MaxClients = sp.clients + 8
		groups := (sp.clients + cfg.GroupSize - 1) / cfg.GroupSize
		rotation := sim.Duration(groups) * cfg.TimeSlice
		// Requests wait about half a rotation for their group's slice, so
		// clients poll at 1% of the rotation (as the scale10k experiment
		// does). A request that misses its group's slice waits for the next
		// one, so the drain covers three rotations.
		w.PollInterval = max(rotation/100, 5*sim.Microsecond)
		w.Drain = 3 * rotation
		s := scalerpc.NewServer(srv, cfg)
		s.Register(1, es.handle)
		s.Start()
		connect = func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) }
	case "rawwrite":
		cfg := rawrpc.DefaultServerConfig()
		cfg.MaxClients = max(cfg.MaxClients, sp.clients+8)
		s := rawrpc.NewServer(srv, cfg)
		s.Register(1, es.handle)
		s.Start()
		connect = func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return s.Connect(ch, sig) }
	default:
		return nil, fmt.Errorf("unknown transport %q", sp.transport)
	}

	clients := make([]loadgen.Client, sp.clients)
	for i := range clients {
		ch := c.Hosts[1+i%sp.clientHosts]
		sig := sim.NewSignal(c.Env)
		clients[i] = loadgen.Client{Host: ch, Conn: newCheckedConn(connect(ch, sig), i, es), Sig: sig}
	}
	runner := loadgen.NewRunner(w, clients, c.Telemetry.UniqueScope("loadgen"))
	runner.Start(c.Env)
	if err := ph.runUntil(c.Env, runner.DrainDeadline()+100*sim.Microsecond); err != nil {
		return nil, err
	}
	rep := runner.Report()
	if es.err != nil {
		return nil, es.err
	}
	if err := checkOpenLoop(rep); err != nil {
		return nil, err
	}

	t := rep.Tenants[0]
	lat, _, _, _ := runner.TenantSample(t.Name)
	out := &outcome{
		virt: virtual{
			Lat: lat, Window: sp.window, Attempted: rep.Offered, Failed: rep.Abandoned + rep.Errors,
		},
		ops:   es.delivered,
		spans: es.spans,
	}
	m := clusterLayers(c, []int{0}, es.delivered)
	m["loadgen.queue_p99_us"] = t.QueueP99Us
	m["loadgen.backlog_peak"] = float64(t.BacklogPeak)
	m["rpc.send_accept_frac"] = ratio(es.sendAccepted, es.sendAttempts)
	m["rpc.empty_poll_frac"] = ratio(es.emptyPolls, es.polls)
	out.virt.Layers = m
	return out, nil
}

// checkOpenLoop verifies that the open-loop accounting closes: every
// request offered in the measurement window completed, was abandoned, or
// failed with an error.
func checkOpenLoop(rep *loadgen.Report) error {
	if rep.Offered == 0 {
		return fmt.Errorf("open loop offered no requests")
	}
	if rep.Offered != rep.Completed+rep.Abandoned+rep.Errors {
		return fmt.Errorf("open-loop accounting does not close: offered %d != completed %d + abandoned %d + errors %d",
			rep.Offered, rep.Completed, rep.Abandoned, rep.Errors)
	}
	return nil
}
