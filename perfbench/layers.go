package main

import (
	"fmt"
	"strings"

	"scalerpc/internal/cluster"
	"scalerpc/internal/telemetry"
)

// layerMetric is one per-layer metric the traced run reports.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric, in report order. Every workload
// reports all of them; a layer the workload does not exercise reads 0.
var perLayer = append(selfTimeMetrics(), []layerMetric{
	{"trace.overhead_frac", "ratio"},
	{"fail_frac", "ratio"},
	{"run.latency_samples", "count"},
	{"sim.events_per_op", "count/op"},
	{"sim.timer_wakes_per_op", "count/op"},
	{"sim.signal_wakes_per_op", "count/op"},
	{"sim.callbacks_per_op", "count/op"},
	{"sim.host_ns_per_event", "ns"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_cycles", "count"},
	{"loadgen.queue_p99_us", "us"},
	{"loadgen.backlog_peak", "count"},
	{"rpc.send_accept_frac", "ratio"},
	{"rpc.empty_poll_frac", "ratio"},
	{"rpc.req_leg_p50_us", "us"},
	{"rpc.req_leg_p99_us", "us"},
	{"rpc.handler_p99_us", "us"},
	{"rpc.resp_leg_p99_us", "us"},
	{"scalerpc.switches", "count"},
	{"scalerpc.warmup_reads_per_op", "count/op"},
	{"scalerpc.served_per_sweep", "count/sweep"},
	{"scalerpc.piggyback_frac", "ratio"},
	{"scalerpc.probes", "count"},
	{"host.server_cpu_util", "ratio"},
	{"nic.qpc_miss_frac", "ratio"},
	{"nic.wqe_miss_frac", "ratio"},
	{"nic.mtt_miss_frac", "ratio"},
	{"nic.wqes_per_op", "count/op"},
	{"nic.retransmits", "count"},
	{"pcie.rdcur_per_op", "count/op"},
	{"pcie.mmio_per_op", "count/op"},
	{"pcie.rfo_per_op", "count/op"},
	{"cachesim.ddio_alloc_frac", "ratio"},
	{"cachesim.cpu_read_miss_frac", "ratio"},
	{"rds.get_p50_us", "us"},
	{"rds.get_p99_us", "us"},
	{"rds.put_p99_us", "us"},
	{"rds.onesided_frac", "ratio"},
	{"rds.cas_retries_per_put", "count/op"},
	{"rds.torn_retries_per_get", "count/op"},
	{"txn.commit_frac", "ratio"},
	{"txn.lock_aborts", "count"},
	{"txn.validation_aborts", "count"},
	{"shard.redirects", "count"},
	{"shard.repl_forwards_per_op", "count/op"},
}...)

// Wake-source indices of sim.Env.FiredBreakdown.
const (
	wakeTimer  = 1
	wakeSignal = 2
)

// ratio returns num/den, or 0 when nothing was counted.
func ratio[N, D ~uint64 | ~uint32 | ~int | ~float64](num N, den D) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// hostSum adds metric over the given hosts, for per-host scopes named by
// format (for example "nic%d").
func hostSum(reg *telemetry.Registry, format string, hosts []int, metric string) float64 {
	var sum float64
	for _, h := range hosts {
		v, _ := reg.Value(fmt.Sprintf(format, h) + "." + metric)
		sum += v
	}
	return sum
}

// scopeSum adds every metric named <scope>[#n].<...>.<suffix>: all
// instances of a component that claims its scope with UniqueScope.
func scopeSum(reg *telemetry.Registry, scope, suffix string) float64 {
	var sum float64
	for _, name := range reg.Names() {
		rest, ok := strings.CutPrefix(name, scope)
		if !ok || !strings.HasSuffix(rest, "."+suffix) {
			continue
		}
		if rest[0] == '#' || rest[0] == '.' {
			v, _ := reg.Value(name)
			sum += v
		}
	}
	return sum
}

// frac returns a/(a+b), or 0 when both are zero.
func frac(a, b float64) float64 { return ratio(a, a+b) }

// clusterLayers derives the per-layer metrics every workload shares from
// the simulator's event counts and the cluster's telemetry registry.
// servers lists the hosts that serve requests; miss rates and CPU use are
// taken there, per-op counts over every host. ops is the number of
// simulated operations the run completed.
func clusterLayers(c *cluster.Cluster, servers []int, ops uint64) map[string]float64 {
	reg := c.Telemetry
	all := make([]int, len(c.Hosts))
	for i := range all {
		all[i] = i
	}
	m := make(map[string]float64)

	cb, wakes := c.Env.FiredBreakdown()
	m["sim.events_per_op"] = ratio(c.Env.Fired(), ops)
	m["sim.timer_wakes_per_op"] = ratio(wakes[wakeTimer], ops)
	m["sim.signal_wakes_per_op"] = ratio(wakes[wakeSignal], ops)
	m["sim.callbacks_per_op"] = ratio(cb, ops)

	var work, capacity float64
	for _, h := range servers {
		work += float64(c.Hosts[h].CPUWorkNs)
		capacity += float64(c.Hosts[h].Cfg.Cores) * float64(c.Env.Now())
	}
	m["host.server_cpu_util"] = ratio(work, capacity)

	nicFrac := func(what string) float64 {
		return frac(hostSum(reg, "nic%d", servers, what+".miss"), hostSum(reg, "nic%d", servers, what+".hit"))
	}
	m["nic.qpc_miss_frac"] = nicFrac("qpc")
	m["nic.wqe_miss_frac"] = nicFrac("wqe")
	m["nic.mtt_miss_frac"] = nicFrac("mtt")
	m["nic.wqes_per_op"] = ratio(hostSum(reg, "nic%d", all, "out.wqes"), ops)
	m["nic.retransmits"] = hostSum(reg, "nic%d", all, "retransmits")

	m["pcie.rdcur_per_op"] = ratio(hostSum(reg, "pcie.bus%d", all, "rdcur"), ops)
	m["pcie.mmio_per_op"] = ratio(hostSum(reg, "pcie.bus%d", all, "mmio_wr"), ops)
	m["pcie.rfo_per_op"] = ratio(hostSum(reg, "pcie.bus%d", all, "rfo"), ops)

	m["cachesim.ddio_alloc_frac"] = frac(hostSum(reg, "llc%d", servers, "dma.alloc"), hostSum(reg, "llc%d", servers, "dma.update"))
	m["cachesim.cpu_read_miss_frac"] = frac(hostSum(reg, "llc%d", servers, "cpu.read.miss"), hostSum(reg, "llc%d", servers, "cpu.read.hit"))

	served := scopeSum(reg, "scalerpc", "server.served")
	m["scalerpc.switches"] = scopeSum(reg, "scalerpc", "server.switches")
	m["scalerpc.warmup_reads_per_op"] = ratio(scopeSum(reg, "scalerpc", "server.warmup_reads"), ops)
	m["scalerpc.served_per_sweep"] = ratio(served, scopeSum(reg, "scalerpc", "sweeps"))
	m["scalerpc.piggyback_frac"] = ratio(scopeSum(reg, "scalerpc", "server.piggybacked"), served)
	m["scalerpc.probes"] = scopeSum(reg, "scalerpc", "server.probes")
	return m
}
