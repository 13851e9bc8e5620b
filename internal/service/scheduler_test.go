package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chaos"
)

// gate is a controllable runFunc: each run blocks until released and
// records the peak concurrency the pool allowed.
type gate struct {
	release chan struct{}
	active  atomic.Int32
	peak    atomic.Int32
	runs    atomic.Int32
}

func newGate() *gate { return &gate{release: make(chan struct{})} }

// run blocks until released or canceled, mirroring the engine's
// iteration-boundary cancellation: a canceled context surfaces as
// ctx.Err() from the run.
func (g *gate) run(ctx context.Context, j *Job) (*chaos.Result, *chaos.Report, error) {
	n := g.active.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	defer g.active.Add(-1)
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	g.runs.Add(1)
	return &chaos.Result{Algorithm: j.Algorithm}, &chaos.Report{Algorithm: j.Algorithm}, nil
}

// startScheduler builds a scheduler over run and starts its workers, as
// Open does once the service is restored.
func startScheduler(cfg SchedulerConfig, run runFunc) *Scheduler {
	s := newScheduler(cfg, run)
	s.start()
	return s
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSchedulerBoundsConcurrency checks that a pool of W workers never
// runs more than W simulations at once while still completing every job.
func TestSchedulerBoundsConcurrency(t *testing.T) {
	const workers, jobs = 3, 12
	g := newGate()
	s := startScheduler(SchedulerConfig{Workers: workers}, g.run)

	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Submit("g", "PR", chaos.Options{Seed: int64(i)}); err != nil {
				t.Errorf("submit: %v", err)
			}
		}(i)
	}
	wg.Wait()

	// All workers saturate, and no more than `workers` run at once.
	waitFor(t, "pool saturation", func() bool { return g.active.Load() == workers })
	st := s.stats()
	if st.running != workers || st.queueDepth != jobs-workers {
		t.Errorf("stats: running %d queued %d, want %d/%d", st.running, st.queueDepth, workers, jobs-workers)
	}
	close(g.release)
	waitFor(t, "all jobs done", func() bool { return g.runs.Load() == jobs })
	if got := g.peak.Load(); got != workers {
		t.Errorf("peak concurrency %d, want exactly %d", got, workers)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, jv := range s.List() {
		if jv.State != JobDone {
			t.Errorf("job %s: state %s, want done", jv.ID, jv.State)
		}
	}
}

// TestSchedulerCancel covers the cancellation state machine: queued jobs
// cancel immediately, running jobs stop cooperatively via their context,
// finished ones conflict, canceled jobs never run.
func TestSchedulerCancel(t *testing.T) {
	g := newGate()
	s := startScheduler(SchedulerConfig{Workers: 1}, g.run)
	defer func() {
		close(g.release)
		s.Shutdown(context.Background())
	}()

	running, _ := s.Submit("g", "PR", chaos.Options{})
	waitFor(t, "first job running", func() bool {
		jv, _ := s.Get(running.ID)
		return jv.State == JobRunning
	})
	queued, _ := s.Submit("g", "BFS", chaos.Options{})

	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if jv, _ := s.Get(queued.ID); jv.State != JobCanceled {
		t.Errorf("state %s, want canceled", jv.State)
	}
	if _, err := s.Cancel("j999"); !errors.As(err, new(*notFoundError)) {
		t.Errorf("canceling unknown job: %v, want not-found", err)
	}

	// Canceling the running job is accepted (not a conflict): the view
	// reports the pending cancellation, and the job lands in canceled
	// once the run observes its context — without ever being released.
	jv, err := s.Cancel(running.ID)
	if err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	if jv.State != JobRunning || !jv.Canceling {
		t.Errorf("cancel running returned state %s canceling %v", jv.State, jv.Canceling)
	}
	if _, err := s.Cancel(running.ID); err != nil {
		t.Errorf("repeated cancel of a running job must be idempotent: %v", err)
	}
	waitFor(t, "running job canceled", func() bool {
		jv, _ := s.Get(running.ID)
		return jv.State == JobCanceled
	})
	waitFor(t, "queue drained", func() bool { return s.stats().queueDepth == 0 })
	if got := g.runs.Load(); got != 0 {
		t.Errorf("%d jobs ran to completion, want 0 (both were canceled)", got)
	}
	if _, err := s.Cancel(running.ID); err == nil {
		t.Error("canceling an already-canceled job should conflict")
	}
}

// TestSchedulerShutdownDrains checks that Shutdown waits for running jobs,
// cancels queued ones, and refuses new submissions.
func TestSchedulerShutdownDrains(t *testing.T) {
	g := newGate()
	s := startScheduler(SchedulerConfig{Workers: 1}, g.run)

	running, _ := s.Submit("g", "PR", chaos.Options{})
	waitFor(t, "job running", func() bool {
		jv, _ := s.Get(running.ID)
		return jv.State == JobRunning
	})
	queued, _ := s.Submit("g", "BFS", chaos.Options{})

	// With the job still blocked, a short deadline must report a timeout.
	shortCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(shortCtx); err == nil {
		t.Fatal("shutdown with a stuck job should time out")
	}
	if _, err := s.Submit("g", "PR", chaos.Options{}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after shutdown: %v, want ErrShuttingDown", err)
	}
	if jv, _ := s.Get(queued.ID); jv.State != JobCanceled {
		t.Errorf("queued job state %s, want canceled at shutdown", jv.State)
	}

	// Release the job: the drain now completes and the job finished
	// normally (graceful shutdown does not kill running work).
	close(g.release)
	ctx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if jv, _ := s.Get(running.ID); jv.State != JobDone {
		t.Errorf("running job state %s, want done after drain", jv.State)
	}
}

// TestSchedulerRetentionEvictsOnlyFinishedJobs checks the history cap:
// old finished jobs are evicted as new ones arrive, but queued and
// running jobs survive even when the cap is exceeded.
func TestSchedulerRetentionEvictsOnlyFinishedJobs(t *testing.T) {
	g := newGate()
	s := startScheduler(SchedulerConfig{Workers: 1, Retain: 3}, g.run)
	defer s.Shutdown(context.Background())

	// Five finished jobs, released one at a time.
	var ids []string
	for i := 0; i < 5; i++ {
		jv, err := s.Submit("g", "PR", chaos.Options{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jv.ID)
		g.release <- struct{}{}
		waitFor(t, "job done", func() bool {
			got, ok := s.Get(jv.ID)
			return ok && got.State == JobDone
		})
	}
	// Submitting one more prunes history down to the cap; the oldest
	// finished jobs are gone, the newest survive.
	last, err := s.Submit("g", "PR", chaos.Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(ids[0]); ok {
		t.Error("oldest finished job survived past the retention cap")
	}
	if _, ok := s.Get(ids[4]); !ok {
		t.Error("recent finished job was evicted")
	}
	if got, _ := s.Get(last.ID); got.State == "" {
		t.Error("in-flight job missing")
	}
	if n := len(s.List()); n > 3 {
		t.Errorf("history holds %d jobs, want <= 3", n)
	}
	g.release <- struct{}{}
	waitFor(t, "last job done", func() bool {
		got, _ := s.Get(last.ID)
		return got.State == JobDone
	})
}

// TestResultCacheEviction checks the bounded cache evicts oldest-first.
func TestResultCacheEviction(t *testing.T) {
	c := newResultCache(2, nil)
	res := &chaos.Result{}
	rep := &chaos.Report{}
	c.store("a", res, rep)
	c.store("b", res, rep)
	c.store("c", res, rep) // evicts "a"
	if _, _, ok := c.lookup("a"); ok {
		t.Error("oldest entry survived past capacity")
	}
	if _, _, ok := c.lookup("b"); !ok {
		t.Error("entry b evicted prematurely")
	}
	if _, _, ok := c.lookup("c"); !ok {
		t.Error("entry c missing")
	}
	if st := c.stats(); st.Entries != 2 || st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats %+v", st)
	}
}

// TestResultCacheEvictionOrderAndCompaction is the regression test for
// the order-slice leak: eviction used to reslice order = order[1:],
// which keeps every evicted key reachable through the shared backing
// array forever. The ring head plus periodic compaction must keep the
// queue's capacity proportional to the cache bound while still evicting
// strictly oldest-first.
func TestResultCacheEvictionOrderAndCompaction(t *testing.T) {
	const capacity, total = 8, 1000
	c := newResultCache(capacity, nil)
	res := &chaos.Result{}
	rep := &chaos.Report{}
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	for i := 0; i < total; i++ {
		c.store(key(i), res, rep)
		if n := len(c.entries); n > capacity {
			t.Fatalf("after %d stores: %d entries, cap %d", i+1, n, capacity)
		}
	}
	// Strict FIFO: exactly the last `capacity` keys survive.
	for i := 0; i < total-capacity; i++ {
		if _, _, ok := c.lookup(key(i)); ok {
			t.Fatalf("evicted key %s still cached", key(i))
		}
	}
	for i := total - capacity; i < total; i++ {
		if _, _, ok := c.lookup(key(i)); !ok {
			t.Fatalf("live key %s missing", key(i))
		}
	}
	// The order queue must not have accumulated the ~1000 dead keys:
	// compaction bounds both its length and its capacity.
	c.mu.Lock()
	qlen, qcap, head := len(c.order), cap(c.order), c.head
	c.mu.Unlock()
	if qlen-head != capacity {
		t.Errorf("live queue window %d, want %d", qlen-head, capacity)
	}
	if qcap > 8*capacity {
		t.Errorf("order queue capacity grew to %d for a %d-entry cache (evicted keys pinned)", qcap, capacity)
	}
}

// TestSchedulerListFiltered covers state filtering and after/limit
// paging over a mixed-state history.
func TestSchedulerListFiltered(t *testing.T) {
	g := newGate()
	s := startScheduler(SchedulerConfig{Workers: 1}, g.run)
	defer func() {
		close(g.release)
		s.Shutdown(context.Background())
	}()

	running, _ := s.Submit("g", "PR", chaos.Options{})
	waitFor(t, "job running", func() bool {
		jv, _ := s.Get(running.ID)
		return jv.State == JobRunning
	})
	var queued []string
	for i := 0; i < 5; i++ {
		jv, err := s.Submit("g", "BFS", chaos.Options{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, jv.ID)
	}
	if _, err := s.Cancel(queued[1]); err != nil {
		t.Fatal(err)
	}

	if all := s.ListFiltered(JobFilter{}); len(all) != 6 {
		t.Fatalf("unfiltered: %d jobs, want 6", len(all))
	}
	q := s.ListFiltered(JobFilter{State: JobQueued})
	if len(q) != 4 {
		t.Fatalf("queued filter: %d jobs, want 4", len(q))
	}
	// Page through the queued jobs two at a time using the cursor.
	page1 := s.ListFiltered(JobFilter{State: JobQueued, Limit: 2})
	if len(page1) != 2 || page1[0].ID != q[0].ID || page1[1].ID != q[1].ID {
		t.Fatalf("page1 %v", page1)
	}
	page2 := s.ListFiltered(JobFilter{State: JobQueued, Limit: 2, After: page1[1].ID})
	if len(page2) != 2 || page2[0].ID != q[2].ID {
		t.Fatalf("page2 %v", page2)
	}
	if page3 := s.ListFiltered(JobFilter{State: JobQueued, Limit: 2, After: page2[1].ID}); len(page3) != 0 {
		t.Fatalf("page3 %v, want empty", page3)
	}
	// A cursor whose job no longer exists still works: ids order the
	// sequence even after history eviction.
	if got := s.ListFiltered(JobFilter{After: "j3"}); len(got) != 3 {
		t.Fatalf("after j3: %d jobs, want 3", len(got))
	}
	if got := s.ListFiltered(JobFilter{State: JobCanceled}); len(got) != 1 || got[0].ID != queued[1] {
		t.Fatalf("canceled filter %v", got)
	}
}

// TestSchedulerFailedJob surfaces run errors as the failed state.
func TestSchedulerFailedJob(t *testing.T) {
	s := startScheduler(SchedulerConfig{Workers: 1}, func(ctx context.Context, j *Job) (*chaos.Result, *chaos.Report, error) {
		return nil, nil, fmt.Errorf("boom")
	})
	defer s.Shutdown(context.Background())
	jv, err := s.Submit("g", "PR", chaos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job failed", func() bool {
		got, _ := s.Get(jv.ID)
		return got.State == JobFailed
	})
	got, _ := s.Get(jv.ID)
	if got.Error != "boom" || got.Result != nil {
		t.Errorf("failed job view %+v", got)
	}
}
