package sim

import (
	"testing"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
}

func TestAtRunsCallbacksInOrder(t *testing.T) {
	e := NewEnv()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (same-instant events must run FIFO)", i, v, i)
		}
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEnv()
	var wakeTimes []Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(100)
			wakeTimes = append(wakeTimes, p.Now())
		}
	})
	e.Run()
	want := []Time{100, 200, 300}
	for i, w := range want {
		if wakeTimes[i] != w {
			t.Fatalf("wakeTimes = %v, want %v", wakeTimes, want)
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(10)
					log = append(log, name)
				}
			})
		}
		e.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		got := run()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("trial %d: schedule diverged at %d: %v vs %v", trial, i, got, first)
			}
		}
	}
	// Spawned a,b,c in order; equal timestamps must preserve that order.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("log = %v, want %v", first, want)
		}
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	e := NewEnv()
	fired := 0
	e.At(50, func() { fired++ })
	e.At(150, func() { fired++ })
	e.RunUntil(100)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %d, want 100", e.Now())
	}
	e.RunUntil(200)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestSignalWakeOne(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	woken := make([]bool, 3)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			s.Wait(p)
			woken[i] = true
		})
	}
	e.At(10, func() { s.Wake(1) })
	e.Run()
	count := 0
	for _, w := range woken {
		if w {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("woken count = %d, want 1", count)
	}
	if !woken[0] {
		t.Fatal("Wake(1) must wake the first waiter (FIFO)")
	}
	e.Close()
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	count := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			s.Wait(p)
			count++
		})
	}
	e.At(10, func() { s.Broadcast() })
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestWaitTimeout(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	var timedOut, gotSignal bool
	e.Spawn("t", func(p *Proc) {
		timedOut = s.WaitTimeout(p, 100)
	})
	e.Spawn("s", func(p *Proc) {
		gotSignal = !s.WaitTimeout(p, 100)
	})
	e.At(50, func() { s.Wake(2) }) // both still waiting at t=50... first may have...
	e.Run()
	if !gotSignal {
		t.Fatal("second waiter should have been signalled before timeout")
	}
	if timedOut {
		t.Fatal("first waiter should have been signalled before timeout")
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	var timedOut bool
	var at Time
	e.Spawn("t", func(p *Proc) {
		timedOut = s.WaitTimeout(p, 100)
		at = p.Now()
	})
	e.Run()
	if !timedOut {
		t.Fatal("expected timeout")
	}
	if at != 100 {
		t.Fatalf("woke at %d, want 100", at)
	}
}

func TestStaleWakeAfterTimeout(t *testing.T) {
	// A waiter that timed out must not be resumed again by a later Wake.
	e := NewEnv()
	s := NewSignal(e)
	resumes := 0
	e.Spawn("t", func(p *Proc) {
		s.WaitTimeout(p, 10)
		resumes++
		p.Sleep(1000)
		resumes++
	})
	e.At(500, func() { s.Broadcast() })
	e.Run()
	if resumes != 2 {
		t.Fatalf("resumes = %d, want 2 (timeout, then sleep completion)", resumes)
	}
	if e.Now() != 1010 {
		t.Fatalf("Now() = %d, want 1010 (stale broadcast must not shorten the sleep)", e.Now())
	}
}

func TestQueuePushPop(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.At(10, func() { q.Push(1) })
	e.At(20, func() { q.Push(2); q.Push(3) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got = %v, want [1 2 3]", got)
	}
}

func TestQueuePopTimeout(t *testing.T) {
	e := NewEnv()
	q := NewQueue[string](e)
	var ok1, ok2 bool
	e.Spawn("c", func(p *Proc) {
		_, ok1 = q.PopTimeout(p, 50)
		v, ok := q.PopTimeout(p, 100)
		ok2 = ok && v == "x"
	})
	e.At(100, func() { q.Push("x") })
	e.Run()
	if ok1 {
		t.Fatal("first pop should time out")
	}
	if !ok2 {
		t.Fatal("second pop should receive the value")
	}
}

func TestQueueTryPop(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue must fail")
	}
	q.Push(7)
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	v, ok := q.TryPop()
	if !ok || v != 7 {
		t.Fatalf("TryPop = %d,%v want 7,true", v, ok)
	}
}

func TestResourceLimitsConcurrency(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 2)
	var maxBusy int
	busy := 0
	for i := 0; i < 6; i++ {
		e.Spawn("worker", func(p *Proc) {
			r.Acquire(p)
			busy++
			if busy > maxBusy {
				maxBusy = busy
			}
			p.Sleep(100)
			busy--
			r.Release()
		})
	}
	end := e.Run()
	if maxBusy != 2 {
		t.Fatalf("maxBusy = %d, want 2", maxBusy)
	}
	if end != 300 {
		t.Fatalf("end = %d, want 300 (6 jobs × 100ns on 2 units)", end)
	}
}

func TestResourceUse(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 1)
	done := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			r.Use(p, 50)
			done++
		})
	}
	end := e.Run()
	if done != 3 || end != 150 {
		t.Fatalf("done=%d end=%d, want 3, 150", done, end)
	}
	u := r.Utilization()
	if u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %f, want ~1.0", u)
	}
}

func TestCloseKillsBlockedProcs(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	reached := false
	e.Spawn("stuck", func(p *Proc) {
		s.Wait(p) // never woken
		reached = true
	})
	e.Run()
	e.Close()
	if reached {
		t.Fatal("killed process must not continue past its blocking call")
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEnv()
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		p.Env().Spawn("child", func(c *Proc) {
			c.Sleep(5)
			childRan = true
		})
		p.Sleep(100)
	})
	end := e.Run()
	if !childRan {
		t.Fatal("child did not run")
	}
	if end != 110 {
		t.Fatalf("end = %d, want 110", end)
	}
}

func TestYieldOrdersAfterQueuedEvents(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Spawn("a", func(p *Proc) {
		p.Env().At(0, func() { order = append(order, "cb") })
		p.Yield()
		order = append(order, "a")
	})
	e.Run()
	if len(order) != 2 || order[0] != "cb" || order[1] != "a" {
		t.Fatalf("order = %v, want [cb a]", order)
	}
}

func BenchmarkCallbackEvents(b *testing.B) {
	e := NewEnv()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			e.At(1, fn)
		}
	}
	e.At(1, fn)
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcSleepWake measures a self-resume: the sleeping process's
// own wake is the next event, so it keeps the baton.
func BenchmarkProcSleepWake(b *testing.B) {
	e := NewEnv()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcHandoff measures a cross-goroutine resume: two sleeping
// processes whose wakes alternate, so each block passes the baton.
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEnv()
	for j := 0; j < 2; j++ {
		e.Spawn("p", func(p *Proc) {
			for i := j; i < b.N; i += 2 {
				p.Sleep(1)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

func TestPropertyTimeNeverRegresses(t *testing.T) {
	// Random callback schedules: observed time must be non-decreasing and
	// every event must fire exactly once.
	err := quickCheck(func(seed uint64) bool {
		e := NewEnv()
		rng := seed
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		var last Time = -1
		fired := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			n := int(next()%5) + 1
			for i := 0; i < n; i++ {
				d := Duration(next() % 1000)
				e.At(d, func() {
					if e.Now() < last {
						t.Errorf("time regressed: %d < %d", e.Now(), last)
					}
					last = e.Now()
					fired++
					if depth < 3 && next()%3 == 0 {
						schedule(depth + 1)
					}
				})
				fired-- // balance: count scheduled as negative, fired as +2
				fired++
			}
		}
		schedule(0)
		e.Run()
		return e.Idle()
	}, 50)
	if err != nil {
		t.Fatal(err)
	}
}

func quickCheck(fn func(seed uint64) bool, n int) error {
	for i := 0; i < n; i++ {
		if !fn(uint64(i)*2654435761 + 1) {
			return fmtErrorf("property failed at seed %d", i)
		}
	}
	return nil
}

func fmtErrorf(format string, args ...interface{}) error {
	return &propErr{s: format, args: args}
}

type propErr struct {
	s    string
	args []interface{}
}

func (e *propErr) Error() string { return e.s }

func TestResourceFIFOFairness(t *testing.T) {
	// Waiters acquire a contended resource roughly in arrival order.
	e := NewEnv()
	r := NewResource(e, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.SpawnAt(Duration(i), "w", func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(100)
			r.Release()
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("acquisition order %v not FIFO", order)
		}
	}
}

func TestQueueInterleavedProducersConsumers(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	var got []int
	for c := 0; c < 3; c++ {
		e.Spawn("consumer", func(p *Proc) {
			for i := 0; i < 10; i++ {
				got = append(got, q.Pop(p))
			}
		})
	}
	for pr := 0; pr < 2; pr++ {
		pr := pr
		e.Spawn("producer", func(p *Proc) {
			for i := 0; i < 15; i++ {
				q.Push(pr*100 + i)
				p.Sleep(7)
			}
		})
	}
	e.Run()
	if len(got) != 30 {
		t.Fatalf("consumed %d, want 30", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("value %d delivered twice", v)
		}
		seen[v] = true
	}
}

func TestSpawnAtDelaysStart(t *testing.T) {
	e := NewEnv()
	var started Time
	e.SpawnAt(500, "late", func(p *Proc) { started = p.Now() })
	e.Run()
	if started != 500 {
		t.Fatalf("started at %d, want 500", started)
	}
}
