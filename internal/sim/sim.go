// Package sim provides a small deterministic discrete-event simulation
// kernel used to model a Chaos cluster: virtual time, cooperatively
// scheduled processes, FIFO bandwidth/latency resources (storage devices,
// NICs), mailboxes and barriers.
//
// Each process is a coroutine (iter.Pull), so exactly one process runs at
// any moment: the scheduler resumes the process whose next event is
// earliest, with a monotonically increasing sequence number breaking ties,
// and the process runs until it parks again. All randomness must come from
// Env.Rand. Runs with equal seeds are therefore bit-for-bit reproducible.
//
// A panic inside a process surfaces from Env.Run, naming the process and
// carrying the stack it failed on. Env.Close unwinds every process still
// parked, running its deferred calls.
package sim

import (
	"container/heap"
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
)

// Time is virtual time in nanoseconds since the start of the simulation.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a duration expressed in seconds to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Seconds reports the duration in (fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// event is a scheduled occurrence: either a callback run in scheduler
// context or the wake-up of a parked process.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Env is a simulation environment. The zero value is not usable; create
// environments with NewEnv.
type Env struct {
	now    Time
	events eventHeap
	seq    uint64
	procs  []*Proc
	rng    *rand.Rand
	// free recycles event structs between heap pops and pushes; a busy
	// simulation fires millions of events and the per-event allocation
	// otherwise dominates the scheduler's cost.
	free []*event
}

// newEvent takes an event from the free list or allocates one.
func (e *Env) newEvent(at Time, fn func(), p *Proc) *event {
	e.seq++
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn, ev.proc = at, e.seq, fn, p
		return ev
	}
	return &event{at: at, seq: e.seq, fn: fn, proc: p}
}

// NewEnv returns an environment whose random choices derive from seed.
func NewEnv(seed int64) *Env {
	return &Env{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source. It must only
// be used from process context or scheduler callbacks, never concurrently.
func (e *Env) Rand() *rand.Rand { return e.rng }

// At schedules fn to run in scheduler context at time t. Scheduling in the
// past panics: it would break causality.
func (e *Env) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	heap.Push(&e.events, e.newEvent(t, fn, nil))
}

// After schedules fn to run d from now.
func (e *Env) After(d Time, fn func()) { e.At(e.now+d, fn) }

func (e *Env) scheduleWake(t Time, p *Proc) {
	if t < e.now {
		panic(fmt.Sprintf("sim: waking %s at %v before now %v", p.name, t, e.now))
	}
	heap.Push(&e.events, e.newEvent(t, nil, p))
}

// Run drives the simulation until no events remain, and returns the final
// virtual time. Processes still blocked afterwards can be inspected with
// Stuck; call Close to unwind them. A panic inside a process is re-raised
// here as a string naming the process, followed by its stack.
func (e *Env) Run() Time {
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(*event)
		e.now = ev.at
		p, fn := ev.proc, ev.fn
		ev.fn, ev.proc = nil, nil
		e.free = append(e.free, ev)
		if p != nil {
			if p.state == procDone {
				continue
			}
			p.state = procRunning
			if _, more := p.next(); !more {
				p.state = procDone
			}
		} else {
			fn()
		}
	}
	return e.now
}

// Stuck returns the names of processes that are still parked (typically
// waiting on a mailbox that will never receive). A correct simulation
// finishes with no stuck processes.
func (e *Env) Stuck() []string {
	var s []string
	for _, p := range e.procs {
		if p.state == procParked {
			s = append(s, p.name+" ["+p.blockedOn+"]")
		}
	}
	return s
}

// Close unwinds every process that has not finished: a parked process
// returns from its park by panicking with stopped, so its deferred calls
// run, and a process that never started never runs. The environment must
// not be used afterwards.
func (e *Env) Close() {
	for _, p := range e.procs {
		p.stop()
		p.state = procDone
	}
}

// procState tracks where a process is in its lifecycle.
type procState int8

const (
	procParked procState = iota
	procRunning
	procDone
)

// Proc is a simulated process: a coroutine that runs only when the
// scheduler resumes it and parks whenever it waits for virtual time or a
// message. Parking switches straight back to Env.Run.
type Proc struct {
	env       *Env
	name      string
	next      func() (struct{}, bool) // resumes the process until it parks or returns
	stop      func()                  // unwinds a parked process; a no-op once it is done
	yield     func(struct{}) bool     // parks; false once Close has stopped the process
	state     procState
	blockedOn string
}

// stopped is the value a parked process panics with when Close stops it.
// Unwinding by panic runs the process's deferred calls; Spawn's wrapper
// recovers it. (runtime.Goexit would instead end the goroutine that called
// Close.)
type stopped struct{}

// Spawn starts a new process executing fn. The process first runs at the
// current virtual time, after already-queued events.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	e.procs = append(e.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		// iter.Pull re-raises a process's panic from Env.Run, where the
		// stack no longer shows where the process failed: keep it here.
		defer func() {
			switch r := recover(); r.(type) {
			case nil, stopped:
			default:
				panic(fmt.Sprintf("sim: process %s: %v\n\n%s", name, r, debug.Stack()))
			}
		}()
		p.yield = yield
		fn(p)
	})
	e.scheduleWake(e.now, p)
	return p
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// park yields control to the scheduler until another event wakes p.
func (p *Proc) park(why string) {
	p.state = procParked
	p.blockedOn = why
	if !p.yield(struct{}{}) {
		panic(stopped{})
	}
	p.blockedOn = ""
}

// Sleep advances the process's local time by d.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.env.scheduleWake(p.env.now+d, p)
	p.park("sleep")
}

// SleepUntil parks the process until virtual time t (a no-op if t is not in
// the future).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.env.now {
		return
	}
	p.env.scheduleWake(t, p)
	p.park("sleep-until")
}
