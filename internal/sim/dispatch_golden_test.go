package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// goldenMix drives a seeded random mix of processes and callbacks through
// every kernel primitive that parks or wakes a process: Sleep, Yield,
// Signal.Wait/WaitTimeout/Wake/Broadcast, Queue.Pop/PopTimeout/Push,
// Resource.Use/UseAsync, and Spawn from both processes and callbacks. It
// logs one line per resumption and per callback — (now, who, what woke it)
// — and runs the clock forward in several RunUntil horizons so hand-backs
// at a horizon are exercised too.
func goldenMix(seed uint64) (log []string, fired uint64, cb uint64, pr [5]uint64) {
	rng := seed*0x9E3779B97F4A7C15 | 1
	rnd := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}

	e := NewEnv()
	defer e.Close()
	sigs := []*Signal{NewSignal(e), NewSignal(e), NewSignal(e)}
	qs := []*Queue[int]{NewQueue[int](e), NewQueue[int](e)}
	res := []*Resource{NewResource(e, 1), NewResource(e, 2)}
	logf := func(format string, args ...interface{}) {
		log = append(log, fmt.Sprintf("%d ", e.Now())+fmt.Sprintf(format, args...))
	}

	spawned, cbs := 0, 0
	var spawn func(delay Duration)
	var callback func(delay Duration)
	spawn = func(delay Duration) {
		if spawned >= 60 {
			return
		}
		id := spawned
		spawned++
		e.SpawnAt(delay, fmt.Sprintf("p%d", id), func(p *Proc) {
			logf("p%d start", id)
			steps := 5 + rnd(20)
			for i := 0; i < steps; i++ {
				switch rnd(12) {
				case 0:
					p.Sleep(Duration(rnd(50)))
					logf("p%d sleep", id)
				case 1:
					p.Yield()
					logf("p%d yield", id)
				case 2:
					to := sigs[rnd(len(sigs))].WaitTimeout(p, Duration(1+rnd(80)))
					logf("p%d waittimeout timedOut=%v", id, to)
				case 3:
					s := rnd(len(sigs))
					if sigs[s].Waiting() > 0 {
						n := sigs[s].Wake(1 + rnd(2))
						logf("p%d wake s%d n=%d", id, s, n)
					} else {
						sigs[s].Broadcast()
						logf("p%d broadcast s%d", id, s)
					}
				case 4:
					v, ok := qs[rnd(len(qs))].PopTimeout(p, Duration(1+rnd(60)))
					logf("p%d poptimeout v=%d ok=%v", id, v, ok)
				case 5:
					qs[rnd(len(qs))].Push(id*100 + i)
				case 6:
					res[rnd(len(res))].Use(p, Duration(rnd(30)))
					logf("p%d use", id)
				case 7:
					ok := res[rnd(len(res))].UseAsync(Duration(rnd(30)))
					logf("p%d useasync ok=%v", id, ok)
				case 8:
					spawn(Duration(rnd(20)))
				case 9:
					callback(Duration(rnd(40)))
				case 10:
					q := qs[rnd(len(qs))]
					if q.Len() > 0 {
						logf("p%d pop v=%d", id, q.Pop(p))
					}
				case 11:
					// Park with no timeout; a later Wake/Broadcast or Close
					// ends it.
					if rnd(4) == 0 {
						sigs[rnd(len(sigs))].Wait(p)
						logf("p%d wait", id)
					}
				}
			}
			logf("p%d exit", id)
		})
	}
	callback = func(delay Duration) {
		if cbs >= 400 {
			return
		}
		id := cbs
		cbs++
		e.At(delay, func() {
			logf("cb%d", id)
			switch rnd(6) {
			case 0:
				sigs[rnd(len(sigs))].Wake(1)
			case 1:
				sigs[rnd(len(sigs))].Broadcast()
			case 2:
				qs[rnd(len(qs))].Push(-id)
			case 3:
				spawn(Duration(rnd(10)))
			case 4:
				res[rnd(len(res))].UseAsync(Duration(rnd(20)))
			case 5:
				callback(Duration(rnd(25)))
				callback(0)
			}
		})
	}

	for i := 0; i < 8; i++ {
		spawn(Duration(rnd(10)))
		callback(Duration(rnd(30)))
	}
	for h := Time(25); h <= 400; h += 25 {
		e.RunUntil(h)
		logf("horizon")
	}
	e.Run()
	logf("end")
	cb, pr = e.FiredBreakdown()
	return log, e.Fired(), cb, pr
}

// TestDispatchOrderGolden pins the exact dispatch order of goldenMix. The
// hashes and counts were recorded on the two-handoff scheduler that
// preceded baton passing; any change to which event runs when — or to
// which goroutine may resume whom — shows up here even when the heap and
// wheel queues agree with each other.
func TestDispatchOrderGolden(t *testing.T) {
	golden := []struct {
		seed  uint64
		hash  uint64
		lines int
		fired uint64
		cb    uint64
		pr    [5]uint64
	}{
		{1, 0x32bf4f5784ef0e78, 837, 624, 179, [5]uint64{60, 225, 160, 0, 0}},
		{2, 0x2df439dc8e7559c1, 804, 629, 163, [5]uint64{60, 245, 161, 0, 0}},
		{3, 0xe5056de3d9771d8a, 783, 583, 122, [5]uint64{60, 255, 146, 0, 0}},
		{4242, 0x3b9a97b7d98110cd, 887, 662, 178, [5]uint64{60, 256, 168, 0, 0}},
	}
	for _, g := range golden {
		log, fired, cb, pr := goldenMix(g.seed)
		h := fnv.New64a()
		for _, l := range log {
			h.Write([]byte(l))
			h.Write([]byte{'\n'})
		}
		if got := h.Sum64(); got != g.hash || len(log) != g.lines {
			t.Errorf("seed %d: log hash %#x over %d lines, want %#x over %d", g.seed, got, len(log), g.hash, g.lines)
		}
		if fired != g.fired || cb != g.cb || pr != g.pr {
			t.Errorf("seed %d: Fired=%d FiredBreakdown=(%d, %v), want %d (%d, %v)", g.seed, fired, cb, pr, g.fired, g.cb, g.pr)
		}
	}
}

// TestDispatchOrderGoldenRepeatable guards the golden test itself: the mix
// must replay identically, or a hash mismatch would mean nothing.
func TestDispatchOrderGoldenRepeatable(t *testing.T) {
	a, fa, _, _ := goldenMix(7)
	b, fb, _, _ := goldenMix(7)
	if fa != fb || len(a) != len(b) {
		t.Fatalf("replay diverged: %d/%d events, %d/%d lines", fa, fb, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at line %d: %q vs %q", i, a[i], b[i])
		}
	}
}
