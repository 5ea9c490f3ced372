package sim

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runRecovering calls RunUntil(until) and returns what it panicked with.
func runRecovering(e *Env, until Time) (r interface{}) {
	defer func() { r = recover() }()
	e.RunUntil(until)
	return nil
}

// TestCallbackPanicSurfacesFromRunUntil checks that a callback's panic is
// raised by RunUntil with its own value, whichever goroutine was running
// the loop when it fired — not relabelled as a process panic.
func TestCallbackPanicSurfacesFromRunUntil(t *testing.T) {
	bad := func(e *Env) func() { return func() { e.At(-1, func() {}) } }
	cases := []struct {
		name  string
		setup func(e *Env)
	}{
		{"on the RunUntil goroutine", func(e *Env) {
			e.At(1, bad(e))
		}},
		{"on a blocking process", func(e *Env) {
			e.Spawn("sleeper", func(p *Proc) {
				e.At(1, bad(e))
				p.Sleep(10) // runs the loop, and so the callback, itself
			})
		}},
		{"on an exiting process", func(e *Env) {
			e.Spawn("quitter", func(p *Proc) {
				e.At(0, bad(e)) // dispatched by the exit path
			})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEnv()
			defer e.Close()
			parked := NewSignal(e)
			e.Spawn("bystander", func(p *Proc) { parked.Wait(p) })
			c.setup(e)
			if r := runRecovering(e, 100); r != "sim: negative delay" {
				t.Fatalf("RunUntil panicked with %v, want %q", r, "sim: negative delay")
			}
		})
	}
}

// TestProcessPanicKeepsLabel checks that a panic in process code still
// crashes with the process's name, in a child test process.
func TestProcessPanicKeepsLabel(t *testing.T) {
	if os.Getenv("SIM_TEST_PROC_PANIC") == "1" {
		e := NewEnv()
		e.Spawn("worker-7", func(p *Proc) {
			p.Sleep(1)
			panic("boom")
		})
		e.Run()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestProcessPanicKeepsLabel$")
	cmd.Env = append(os.Environ(), "SIM_TEST_PROC_PANIC=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("child exited cleanly; want a crash")
	}
	if want := `sim: process "worker-7" panicked: boom`; !strings.Contains(string(out), want) {
		t.Fatalf("child output lacks %q:\n%s", want, out)
	}
}

// TestCloseMidRunReclaimsGoroutines stops RunUntil at a horizon while some
// processes have exited — each passing the baton on as it went — and others
// are parked in every way a process can park, then checks that Close
// returns the goroutine count to where it was before the Env existed.
func TestCloseMidRunReclaimsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv()
	sig := NewSignal(e)
	q := NewQueue[int](e)
	r := NewResource(e, 1)
	exited := 0
	for i := 0; i < 16; i++ {
		e.SpawnAt(Duration(i), "short", func(p *Proc) {
			p.Sleep(Duration(1 + i%3))
			exited++
		})
	}
	for i := 0; i < 4; i++ {
		e.Spawn("waiter", func(p *Proc) { sig.Wait(p) })
		e.Spawn("consumer", func(p *Proc) { q.Pop(p) })
		e.Spawn("timed", func(p *Proc) { sig.WaitTimeout(p, 1000) })
		e.Spawn("core", func(p *Proc) { r.Use(p, 1000) }) // one holds, three queue
		e.Spawn("sleeper", func(p *Proc) { p.Sleep(1000) })
	}
	e.SpawnAt(1000, "unstarted", func(p *Proc) {})
	e.RunUntil(50)
	if exited != 16 {
		t.Fatalf("%d short processes exited by the horizon, want 16", exited)
	}
	if live := len(e.procs); live != 21 {
		t.Fatalf("%d processes live at the horizon, want 21", live)
	}
	e.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Close, want ≤ %d", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
