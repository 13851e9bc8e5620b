package sim

import (
	"testing"
	"testing/quick"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	env := NewEnv(1)
	var woke Time
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Second)
		woke = p.Now()
	})
	end := env.Run()
	if woke != 5*Second {
		t.Errorf("woke at %v, want 5s", woke)
	}
	if end != 5*Second {
		t.Errorf("run ended at %v, want 5s", end)
	}
}

func TestEventOrderingIsDeterministic(t *testing.T) {
	run := func(seed int64) []int {
		env := NewEnv(seed)
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			d := Time(env.Rand().Intn(5)) * Second
			env.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				order = append(order, i)
			})
		}
		env.Run()
		return order
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs with equal seeds diverged: %v vs %v", a, b)
		}
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	env := NewEnv(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.At(Second, func() { order = append(order, i) })
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	env := NewEnv(1)
	env.Spawn("p", func(p *Proc) { p.Sleep(Second) })
	env.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	env.At(0, func() {})
}

func TestResourceFIFOQueueing(t *testing.T) {
	env := NewEnv(1)
	res := NewResource(env, "disk", 100, 0) // 100 B/s
	var done [2]Time
	for i := 0; i < 2; i++ {
		i := i
		env.Spawn("user", func(p *Proc) {
			done[i] = res.Use(p, 100) // 1s service each
		})
	}
	env.Run()
	if done[0] != Second || done[1] != 2*Second {
		t.Errorf("completion times %v, want 1s and 2s", done)
	}
	if got := res.BusyTime(); got != 2*Second {
		t.Errorf("busy time %v, want 2s", got)
	}
	if got := res.Bytes(); got != 200 {
		t.Errorf("bytes %d, want 200", got)
	}
}

func TestResourceLatencyAndBandwidthCompose(t *testing.T) {
	env := NewEnv(1)
	res := NewResource(env, "disk", 1000, 100*Millisecond)
	if got := res.ServiceTime(500); got != 600*Millisecond {
		t.Errorf("service time %v, want 600ms", got)
	}
	// Zero bandwidth means infinitely fast: latency only.
	inf := NewResource(env, "fast", 0, 10*Millisecond)
	if got := inf.ServiceTime(1 << 30); got != 10*Millisecond {
		t.Errorf("service time %v, want 10ms", got)
	}
}

func TestResourceScheduleCallback(t *testing.T) {
	env := NewEnv(1)
	res := NewResource(env, "disk", 100, 0)
	var at Time
	res.Schedule(50, func() { at = env.Now() })
	env.Run()
	if at != 500*Millisecond {
		t.Errorf("callback at %v, want 0.5s", at)
	}
}

func TestResourceUtilization(t *testing.T) {
	env := NewEnv(1)
	res := NewResource(env, "disk", 100, 0)
	env.Spawn("u", func(p *Proc) {
		res.Use(p, 100) // busy 1s
		p.Sleep(Second) // idle 1s
	})
	env.Run()
	if got := res.Utilization(); got != 0.5 {
		t.Errorf("utilization %f, want 0.5", got)
	}
}

func TestMailboxDeliveryWakesReceiver(t *testing.T) {
	env := NewEnv(1)
	mb := NewMailbox(env, "inbox")
	var got any
	var at Time
	env.Spawn("recv", func(p *Proc) {
		got = mb.Recv(p)
		at = p.Now()
	})
	env.Spawn("send", func(p *Proc) {
		p.Sleep(3 * Second)
		mb.Put("hello")
	})
	env.Run()
	if got != "hello" || at != 3*Second {
		t.Errorf("got %v at %v, want hello at 3s", got, at)
	}
}

func TestMailboxPutAfterModelsDelay(t *testing.T) {
	env := NewEnv(1)
	mb := NewMailbox(env, "inbox")
	var at Time
	env.Spawn("recv", func(p *Proc) {
		mb.Recv(p)
		at = p.Now()
	})
	mb.PutAfter(7*Second, 1)
	env.Run()
	if at != 7*Second {
		t.Errorf("received at %v, want 7s", at)
	}
}

func TestMailboxPreservesFIFO(t *testing.T) {
	env := NewEnv(1)
	mb := NewMailbox(env, "inbox")
	var got []int
	env.Spawn("recv", func(p *Proc) {
		for i := 0; i < 10; i++ {
			got = append(got, mb.Recv(p).(int))
		}
	})
	env.Spawn("send", func(p *Proc) {
		for i := 0; i < 10; i++ {
			mb.Put(i)
			p.Sleep(Millisecond)
		}
	})
	env.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("messages out of order: %v", got)
		}
	}
}

func TestBarrierReleasesAllAtOnce(t *testing.T) {
	env := NewEnv(1)
	b := NewBarrier(env, 3)
	var times []Time
	for i := 0; i < 3; i++ {
		d := Time(i) * Second
		env.Spawn("p", func(p *Proc) {
			p.Sleep(d)
			b.Wait(p)
			times = append(times, p.Now())
		})
	}
	env.Run()
	if len(times) != 3 {
		t.Fatalf("only %d parties released", len(times))
	}
	for _, tm := range times {
		if tm != 2*Second {
			t.Errorf("released at %v, want 2s (slowest arrival)", tm)
		}
	}
}

func TestBarrierIsReusable(t *testing.T) {
	env := NewEnv(1)
	b := NewBarrier(env, 2)
	var rounds int
	for i := 0; i < 2; i++ {
		env.Spawn("p", func(p *Proc) {
			for r := 0; r < 5; r++ {
				p.Sleep(Time(env.Rand().Intn(3)) * Second)
				b.Wait(p)
			}
			rounds++
		})
	}
	env.Run()
	if rounds != 2 {
		t.Errorf("%d processes finished, want 2 (deadlock in reuse?)", rounds)
	}
	if s := env.Stuck(); len(s) != 0 {
		t.Errorf("stuck processes: %v", s)
	}
}

func TestStuckDetection(t *testing.T) {
	env := NewEnv(1)
	mb := NewMailbox(env, "never")
	env.Spawn("lost", func(p *Proc) { mb.Recv(p) })
	env.Run()
	if s := env.Stuck(); len(s) != 1 {
		t.Fatalf("stuck = %v, want one entry", s)
	}
	env.Close()
	if s := env.Stuck(); len(s) != 0 {
		t.Errorf("after Close stuck = %v, want none", s)
	}
}

func TestResourceFreeAtNeverRegresses(t *testing.T) {
	// Property: for any request sequence, completion times are
	// non-decreasing and busy time equals the sum of service times.
	f := func(sizes []uint16) bool {
		env := NewEnv(7)
		res := NewResource(env, "d", 1e6, Microsecond)
		var last Time
		var busy Time
		ok := true
		env.Spawn("u", func(p *Proc) {
			for _, s := range sizes {
				busy += res.ServiceTime(int64(s))
				done := res.Use(p, int64(s))
				if done < last {
					ok = false
				}
				last = done
			}
		})
		env.Run()
		return ok && res.BusyTime() == busy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSpawnAfterRunContinues(t *testing.T) {
	env := NewEnv(1)
	env.Spawn("a", func(p *Proc) { p.Sleep(Second) })
	env.Run()
	var ran bool
	env.Spawn("b", func(p *Proc) { ran = true })
	env.Run()
	if !ran {
		t.Error("process spawned after first Run never ran")
	}
}

func TestYieldRunsQueuedEventsFirst(t *testing.T) {
	env := NewEnv(1)
	var order []string
	env.Spawn("a", func(p *Proc) {
		env.At(env.Now(), func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "proc")
	})
	env.Run()
	if len(order) != 2 || order[0] != "event" || order[1] != "proc" {
		t.Errorf("order = %v, want [event proc]", order)
	}
}
