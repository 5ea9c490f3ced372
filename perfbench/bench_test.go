package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/host"
	"scalerpc/internal/loadgen"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// loopConn answers every request itself, after flipping byte corrupt of
// the echo when corrupt >= 0.
type loopConn struct {
	corrupt int
	queue   []rpccore.Response
}

func (c *loopConn) TrySend(t *host.Thread, _ uint8, payload []byte, reqID uint64) bool {
	p := append([]byte(nil), payload...)
	if c.corrupt >= 0 {
		p[c.corrupt] ^= 0xff
	}
	c.queue = append(c.queue, rpccore.Response{ReqID: reqID, Payload: p})
	return true
}

func (c *loopConn) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	n := len(c.queue)
	for _, r := range c.queue {
		fn(r)
	}
	c.queue = c.queue[:0]
	return n
}

func (c *loopConn) Outstanding() int { return len(c.queue) }
func (c *loopConn) SlotCount() int   { return 16 }

// echoThroughLoop sends one 32-byte request through a checkedConn over a
// loopConn and returns the check's verdict.
func echoThroughLoop(t *testing.T, corrupt int, traced bool) error {
	t.Helper()
	c := cluster.New(cluster.Default(1))
	defer c.Close()
	es := newEchoState(traced)
	cc := newCheckedConn(&loopConn{corrupt: corrupt}, 7, es)
	c.Hosts[0].Spawn("client", func(th *host.Thread) {
		req := make([]byte, 32)
		copy(req, "key00042")
		if !cc.TrySend(th, 1, req, 1) {
			t.Error("TrySend refused")
		}
		if traced {
			// Stand in for the server's handler, which records the tag.
			es.handle(th, 0, cc.buf, make([]byte, 32))
		}
		cc.Poll(th, func(rpccore.Response) {})
	})
	c.Env.RunUntil(sim.Millisecond)
	return es.err
}

func TestEchoCheckCatchesCorruption(t *testing.T) {
	for _, traced := range []bool{false, true} {
		if err := echoThroughLoop(t, -1, traced); err != nil {
			t.Errorf("traced=%v: intact echo rejected: %v", traced, err)
		}
		for _, at := range []int{3, 9} { // a key byte, a tag byte
			if err := echoThroughLoop(t, at, traced); err == nil {
				t.Errorf("traced=%v: echo with byte %d corrupted passed the check", traced, at)
			}
		}
	}
}

func TestOpenLoopAccountingMustClose(t *testing.T) {
	if err := checkOpenLoop(&loadgen.Report{Offered: 10, Completed: 8, Abandoned: 1, Errors: 1}); err != nil {
		t.Errorf("balanced accounting rejected: %v", err)
	}
	for _, rep := range []loadgen.Report{
		{Offered: 10, Completed: 8, Abandoned: 1},
		{Offered: 10, Completed: 11},
		{},
	} {
		if err := checkOpenLoop(&rep); err == nil {
			t.Errorf("broken accounting %+v passed the check", rep)
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "scalerpc/internal/nic.(*NIC).post", "scalerpc/internal/sim.(*Env).RunUntil"}, "nic.self_s"},
		{[]string{"scalerpc/internal/baseline/rawrpc.(*Server).serve.func1"}, "rawrpc.self_s"},
		{[]string{"scalerpc/internal/objstore.Get"}, "internal_other.self_s"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go.gc_s"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m"}, "go.sched_s"},
		{[]string{"runtime.memmove", "main.(*checkedConn).TrySend"}, "go.other_s"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestOutputMatchesBenchmarkJSON runs the cheapest workload both ways and
// checks that it reports exactly the metrics, with the units, that
// BENCHMARK.json declares, and that every declared workload exists.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		found := false
		for _, wl := range workloads {
			found = found || wl.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		var out bytes.Buffer
		if code := run(&out, "kv-rw", 1, 0, c.traced, t.TempDir()); code != 0 {
			t.Fatalf("traced=%v: exit code %d\n%s", c.traced, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("traced=%v: last line is not the result: %v", c.traced, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("traced=%v: result %+v", c.traced, res)
		}
		var got, want []string
		for k, m := range res.Metrics {
			got = append(got, k+" "+m.Unit)
		}
		for _, m := range c.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("traced=%v: metrics\n got  %v\n want %v", c.traced, got, want)
		}
	}
}
