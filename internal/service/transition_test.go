package service

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"chaos"
	"chaos/internal/obs"
)

// TestProgressTicksCarryAcceptedCancel files progress ticks from a
// running job's own goroutine, the way the engine does, while the test
// goroutine cancels the job. Every tick filed after Cancel returned must
// carry Canceling, and the job must end canceled once its run gives way.
// Under -race this is also the check that the lock-free ticks never read
// the record a transition is writing.
func TestProgressTicksCarryAcceptedCancel(t *testing.T) {
	var accepted atomic.Bool
	var ticks, firstAfter atomic.Int64 // firstAfter: first tick filed after Cancel returned
	release := make(chan struct{})
	var s *Scheduler
	s = startScheduler(Config{Workers: 1}, func(ctx context.Context, j *Job) (*chaos.Result, *chaos.Report, error) {
		for i := int64(1); ; i++ {
			if accepted.Load() {
				firstAfter.CompareAndSwap(0, i)
			}
			s.NoteProgress(j, chaos.Progress{Iterations: int(i)})
			ticks.Store(i)
			select {
			case <-release:
				return nil, nil, ctx.Err()
			case <-time.After(200 * time.Microsecond):
			}
		}
	})
	defer s.Shutdown(context.Background())

	ch, unsubscribe := s.Subscribe("j1")
	defer unsubscribe()
	collected := make(chan []JobEvent)
	go func() {
		var evs []JobEvent
		for ev := range ch {
			evs = append(evs, ev)
			if ev.Type == EventState && ev.Job.State.terminal() {
				break
			}
		}
		collected <- evs
	}()

	jv, err := s.Submit("g", "PR", chaos.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first tick", func() bool { return ticks.Load() > 0 })
	if v, err := s.Cancel(jv.ID); err != nil || !v.Canceling {
		t.Fatalf("cancel: %+v, %v", v, err)
	}
	accepted.Store(true)
	waitFor(t, "ticks after the cancel", func() bool {
		n := firstAfter.Load()
		return n > 0 && ticks.Load() >= n+20
	})
	close(release)

	evs := <-collected
	after := 0
	for _, ev := range evs {
		if ev.Type != EventProgress || int64(ev.Job.Progress.Iterations) < firstAfter.Load() {
			continue
		}
		after++
		if !ev.Job.Canceling {
			t.Fatalf("tick %d was filed after the cancel was accepted but does not carry it", ev.Job.Progress.Iterations)
		}
	}
	if after == 0 {
		t.Error("no tick filed after the cancel reached the subscriber")
	}
	if last := evs[len(evs)-1]; last.Type != EventState || last.Job.State != JobCanceled {
		t.Errorf("last event %s %s, want the canceled state", last.Type, last.Job.State)
	}
	if v, _ := s.Get(jv.ID); v.State != JobCanceled {
		t.Errorf("job ended %s (%q), want canceled", v.State, v.Error)
	}
}

// fuzzEvent decodes one byte into a job event: the low three bits pick
// the kind, the rest its parameters.
func fuzzEvent(b byte) jobEvent {
	ev := jobEvent{kind: jobEventKind(b & 7 % 7)}
	switch ev.kind {
	case evSubmit, evCacheHit:
		if b&8 != 0 {
			ev.root = &obs.TreeSpan{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7", Name: "POST /v1/jobs", Kind: obs.KindRequest, Start: time.Unix(1, 0).UnixNano()}
		}
	case evFinish:
		ev.err = []error{nil, context.Canceled, errors.New("boom")}[b>>3%3]
	case evCancel:
		if b&8 != 0 {
			ev.detail = "canceled at shutdown before running"
		}
	case evSpan:
		ev.name, ev.detail, ev.dur = "checkpoint", "result blob persisted", time.Duration(b>>3)*time.Microsecond
	case evRestart:
		ev.graphKnown, ev.maxRestarts = b&8 != 0, maxRestarts
	}
	return ev
}

// FuzzJobTransitions drives a submitted job's record through an
// arbitrary sequence of events, crash recovery included, and checks
// jobRecord.step's invariants after every one: a terminal state is
// final, the restart count never falls and stays within maxRestarts, at
// most one queue and one run span are open, the span tree has no
// orphans, Canceling holds only while running, and the record survives
// a JSON round trip unchanged (it is what the journal stores).
func FuzzJobTransitions(f *testing.F) {
	f.Add([]byte{0, byte(evStart), byte(evSpan), byte(evFinish)})
	f.Add([]byte{8, byte(evStart), byte(evCancel), byte(evRestart | 8), byte(evStart), byte(evFinish | 8)})
	f.Add([]byte{0, byte(evRestart | 8), byte(evStart), byte(evRestart | 8), byte(evStart), byte(evRestart | 8), byte(evStart), byte(evRestart | 8)})
	f.Add([]byte{0, byte(evCancel | 8), byte(evRestart), byte(evCacheHit)})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		now := time.Unix(1_700_000_000, 0).UTC()
		r := jobRecord{ID: "j1", Graph: "g1", Algorithm: "PR", Options: chaos.Options{Seed: 1}}
		submit := fuzzEvent(script[0] & 8) // evSubmit, with or without a request trace
		r.step(submit, now)
		for i, b := range script[1:] {
			now = now.Add(time.Millisecond)
			ev := fuzzEvent(b)
			before := r
			r.step(ev, now)
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("event %d (kind %d) from %s: "+format, append([]any{i, ev.kind, before.State}, args...)...)
			}
			if before.State.terminal() && r.State != before.State {
				fail("terminal state left for %s", r.State)
			}
			if r.Restarts < before.Restarts || r.Restarts > maxRestarts {
				fail("restarts went from %d to %d", before.Restarts, r.Restarts)
			}
			if r.Canceling && r.State != JobRunning {
				fail("canceling while %s", r.State)
			}
			open := map[string]int{}
			for _, sp := range r.Spans {
				if sp.End == 0 {
					open[sp.Name]++
				}
			}
			if open["queued"] > 1 || open["run"] > 1 {
				fail("open spans %v", open)
			}
			if _, orphans := obs.BuildTree(r.Spans); orphans != 0 {
				fail("%d orphan spans in %+v", orphans, r.Spans)
			}
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			var back jobRecord
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, r) {
				fail("the record changed in a JSON round trip:\n%+v\n%+v", r, back)
			}
		}
	})
}
