package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"chaos"
)

// TestSchedulerQueueBound: admission control rejects the submission
// that would exceed MaxQueue with *QueueFullError, keeps FIFO order for
// the admitted ones, and admits again once the queue drains.
func TestSchedulerQueueBound(t *testing.T) {
	g := newGate()
	s := startScheduler(Config{Workers: 1, MaxQueue: 3}, g.run)
	defer func() {
		close(g.release)
		s.Shutdown(context.Background())
	}()

	first, err := s.Submit("g", "PR", chaos.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job running", func() bool {
		jv, _ := s.Get(first.ID)
		return jv.State == JobRunning
	})
	// The running job does not occupy the queue: three more fit.
	var admitted []string
	for i := 0; i < 3; i++ {
		jv, err := s.Submit("g", "PR", chaos.Options{Seed: int64(i + 2)})
		if err != nil {
			t.Fatalf("submission %d within the bound: %v", i, err)
		}
		admitted = append(admitted, jv.ID)
	}
	_, err = s.Submit("g", "PR", chaos.Options{Seed: 99})
	qf, ok := err.(*QueueFullError)
	if !ok {
		t.Fatalf("over-bound submission: %v, want *QueueFullError", err)
	}
	if qf.Depth != 3 || qf.Max != 3 {
		t.Errorf("QueueFullError %+v, want depth 3 max 3", qf)
	}
	if ra := qf.RetryAfterSeconds(); ra < 1 || ra > 60 {
		t.Errorf("RetryAfterSeconds = %d, want within [1, 60]", ra)
	}

	// Canceling a queued job frees a slot immediately.
	if _, err := s.Cancel(admitted[1]); err != nil {
		t.Fatal(err)
	}
	refill, err := s.Submit("g", "PR", chaos.Options{Seed: 100})
	if err != nil {
		t.Fatalf("submission after a queued cancel: %v", err)
	}

	// Drain everything; the admitted jobs ran in FIFO order.
	for i := 0; i < 4; i++ {
		g.release <- struct{}{}
	}
	waitFor(t, "all jobs finished", func() bool {
		jv, _ := s.Get(refill.ID)
		return jv.State == JobDone
	})
	if jv, _ := s.Get(admitted[1]); jv.State != JobCanceled {
		t.Errorf("canceled job state %s", jv.State)
	}
}

// TestSubmitQueueFull429: the HTTP layer maps QueueFullError to 429
// with a Retry-After header.
func TestSubmitQueueFull429(t *testing.T) {
	svc := New(Config{Workers: 1, BaseOptions: labOptions, MaxQueue: 1})
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	// Replace nothing: saturate with real jobs on a real (tiny) graph.
	if _, err := svc.RegisterGraph(GraphSpec{Name: "g", Type: "rmat", Scale: 6, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	submit := func(seed int) *httptest.ResponseRecorder {
		body := fmt.Sprintf(`{"graph":"g","algorithm":"PR","options":{"seed":%d,"maxIterations":50}}`, seed)
		return postJSON(t, h, "/v1/jobs", body)
	}
	// Saturate: one running (eventually), one queued, then overflow.
	// Submissions are fast relative to a run, but a burst larger than
	// worker+queue capacity guarantees at least one 429 regardless of
	// how quickly the worker drains.
	var got429 *httptest.ResponseRecorder
	for i := 0; i < 50 && got429 == nil; i++ {
		if w := submit(i + 1); w.Code == http.StatusTooManyRequests {
			got429 = w
		} else if w.Code != http.StatusAccepted {
			t.Fatalf("submission %d: unexpected status %d: %s", i, w.Code, w.Body.String())
		}
	}
	if got429 == nil {
		t.Fatal("50 rapid submissions against a 1-worker, 1-slot queue never hit 429")
	}
	ra := got429.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Errorf("Retry-After = %q, want a positive integer of seconds", ra)
	}
	if !strings.Contains(got429.Body.String(), "queue is full") {
		t.Errorf("429 body %q", got429.Body.String())
	}
}

// TestListFilteredAfterEvictedCursor: a pagination cursor whose job id
// has been evicted from history still resumes correctly — ids order
// the sequence, so the listing continues just past the missing id.
func TestListFilteredAfterEvictedCursor(t *testing.T) {
	g := newGate()
	s := newScheduler(Config{Workers: 1}, g.run)
	s.retain = 3
	s.start()
	defer s.Shutdown(context.Background())

	var ids []string
	for i := 0; i < 6; i++ {
		jv, err := s.Submit("g", "PR", chaos.Options{Seed: int64(i + 1)})
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
	// History holds at most 3 jobs now; the first ones are gone.
	if _, ok := s.Get(ids[0]); ok {
		t.Fatalf("job %s should have been evicted", ids[0])
	}
	// Cursor at the evicted first id: the page must hold exactly the
	// surviving jobs after it, in order, with no duplicates or error.
	page := s.ListFiltered(JobFilter{After: ids[0]})
	if len(page) != 3 {
		t.Fatalf("after evicted cursor %s: %d jobs, want the 3 survivors", ids[0], len(page))
	}
	for i, jv := range page {
		if jv.ID != ids[3+i] {
			t.Errorf("page[%d] = %s, want %s", i, jv.ID, ids[3+i])
		}
	}
	// An evicted cursor in the middle of the evicted range behaves the
	// same: everything with a later sequence number.
	if page := s.ListFiltered(JobFilter{After: ids[1], Limit: 2}); len(page) != 2 || page[0].ID != ids[3] {
		t.Fatalf("limited page after evicted cursor: %+v", page)
	}
}

// TestListStripsPayloads: listings carry no Result/Report (uniform and
// cheap — journal-restored done jobs could not offer them anyway), the
// single-job GET still does.
func TestListStripsPayloads(t *testing.T) {
	g := newGate()
	s := startScheduler(Config{Workers: 1}, g.run)
	defer s.Shutdown(context.Background())

	jv, err := s.Submit("g", "PR", chaos.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g.release <- struct{}{}
	waitFor(t, "job done", func() bool {
		got, _ := s.Get(jv.ID)
		return got.State == JobDone
	})
	full, _ := s.Get(jv.ID)
	if full.Result == nil || full.Report == nil {
		t.Fatal("GET view lost its payload")
	}
	for _, listed := range s.List() {
		if listed.Result != nil || listed.Report != nil {
			t.Errorf("list view of %s carries a payload", listed.ID)
		}
	}
}

// TestEventHubOrderingUnderConcurrentTransitions: with many jobs
// transitioning concurrently and a subscriber per job, every
// subscriber observes its job's lifecycle in order (queued before
// running before terminal) with hub-wide strictly increasing sequence
// numbers — the contract the SSE stream exposes.
func TestEventHubOrderingUnderConcurrentTransitions(t *testing.T) {
	const jobs = 8
	g := newGate()
	s := startScheduler(Config{Workers: 4}, g.run)
	defer s.Shutdown(context.Background())

	// Subscriptions must exist before the first transition: subscribe,
	// then submit, per job, collecting concurrently.
	type stream struct {
		id     string
		events []JobEvent
	}
	streams := make([]stream, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("j%d", i+1) // ids are assigned sequentially
		ch, cancel := s.Subscribe(id)
		streams[i].id = id
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer cancel()
			for ev := range ch {
				streams[i].events = append(streams[i].events, ev)
				if ev.Type == EventState && ev.Job.State.terminal() {
					return
				}
			}
		}(i)
	}
	for i := 0; i < jobs; i++ {
		if _, err := s.Submit("g", "PR", chaos.Options{Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	close(g.release)
	wg.Wait()

	rank := map[JobState]int{JobQueued: 0, JobRunning: 1, JobDone: 2, JobFailed: 2, JobCanceled: 2}
	for _, st := range streams {
		if len(st.events) < 3 {
			t.Fatalf("job %s: %d events, want at least queued/running/done", st.id, len(st.events))
		}
		lastSeq := uint64(0)
		lastRank := -1
		for _, ev := range st.events {
			if ev.Job.ID != st.id {
				t.Fatalf("job %s: received event for %s", st.id, ev.Job.ID)
			}
			if ev.Seq <= lastSeq {
				t.Errorf("job %s: sequence regressed %d -> %d", st.id, lastSeq, ev.Seq)
			}
			lastSeq = ev.Seq
			if ev.Type == EventState {
				r := rank[ev.Job.State]
				if r < lastRank {
					t.Errorf("job %s: state %s after a later state", st.id, ev.Job.State)
				}
				lastRank = r
			}
			if ev.Job.Result != nil || ev.Job.Report != nil {
				t.Errorf("job %s: event carries a result payload", st.id)
			}
		}
		final := st.events[len(st.events)-1]
		if final.Type != EventState || final.Job.State != JobDone {
			t.Errorf("job %s: final event %s/%s, want state/done", st.id, final.Type, final.Job.State)
		}
	}
}

// TestProgressTicksFlowToViewsAndEvents: a progress tick filed while a
// job runs appears in the job view, is ordered between the running and
// terminal events for subscribers, and vanishes from the view once the
// job completes (the full report supersedes it).
func TestProgressTicksFlowToViewsAndEvents(t *testing.T) {
	g := newGate()
	s := startScheduler(Config{Workers: 1}, g.run)
	defer s.Shutdown(context.Background())

	ch, cancel := s.Subscribe("j1")
	defer cancel()
	jv, err := s.Submit("g", "PR", chaos.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool {
		got, _ := s.Get(jv.ID)
		return got.State == JobRunning
	})
	s.mu.Lock()
	job := s.jobs[jv.ID]
	s.mu.Unlock()
	for i := 1; i <= 3; i++ {
		s.NoteProgress(job, chaos.Progress{
			Iterations: i, SimulatedSeconds: float64(i), BytesRead: int64(i) << 20,
			StealsRejected: 2 * i, SpillBytes: int64(i) << 10,
		})
	}
	got, _ := s.Get(jv.ID)
	if got.Progress == nil || got.Progress.Iterations != 3 {
		t.Fatalf("running view progress %+v, want iteration 3", got.Progress)
	}
	if got.Progress.StealsRejected != 6 || got.Progress.SpillBytes != 3<<10 {
		t.Fatalf("running view progress %+v lost steal/spill counters", got.Progress)
	}
	g.release <- struct{}{}
	waitFor(t, "job done", func() bool {
		got, _ := s.Get(jv.ID)
		return got.State == JobDone
	})
	if got, _ := s.Get(jv.ID); got.Progress != nil {
		t.Error("done view still carries live progress")
	}

	// Event order: queued, running, 3 progress ticks, done.
	var types []string
	var states []JobState
	deadline := time.After(30 * time.Second)
	for len(types) < 6 {
		select {
		case ev := <-ch:
			types = append(types, ev.Type)
			states = append(states, ev.Job.State)
		case <-deadline:
			t.Fatalf("timed out with events %v", types)
		}
	}
	want := []string{EventState, EventState, EventProgress, EventProgress, EventProgress, EventState}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event sequence %v (states %v), want %v", types, states, want)
		}
	}
	if states[5] != JobDone {
		t.Errorf("final event state %s, want done", states[5])
	}
}

// TestEventHubDropsLaggingSubscriber: a subscriber that never reads is
// disconnected (channel closed) when a state event finds its buffer
// full, instead of blocking the scheduler or silently losing the
// transition; progress ticks just drop.
func TestEventHubDropsLaggingSubscriber(t *testing.T) {
	h := newEventHub()
	ch, cancel := h.subscribe("j1")
	defer cancel()
	// Fill the buffer with progress ticks, then overflow with more:
	// progress overflow drops events but keeps the subscription.
	for i := 0; i < subBuffer+8; i++ {
		h.publish("j1", EventProgress, JobView{ID: "j1"})
	}
	if len(ch) != subBuffer {
		t.Fatalf("buffered %d events, want full buffer %d", len(ch), subBuffer)
	}
	// A state event against the still-full buffer disconnects.
	h.publish("j1", EventState, JobView{ID: "j1", State: JobDone})
	drained := 0
	for range ch { // closed after the buffered events
		drained++
	}
	if drained != subBuffer {
		t.Errorf("drained %d events from the dropped subscriber, want %d", drained, subBuffer)
	}
}

// TestShutdownDisconnectsEventStreams: beginning shutdown closes every
// subscriber channel immediately — even with the job still running —
// so SSE handlers (never idle from the HTTP server's perspective)
// release the drain budget; and a subscription opened during drain
// comes back already closed.
func TestShutdownDisconnectsEventStreams(t *testing.T) {
	g := newGate()
	s := startScheduler(Config{Workers: 1}, g.run)

	jv, err := s.Submit("g", "PR", chaos.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool {
		got, _ := s.Get(jv.ID)
		return got.State == JobRunning
	})
	ch, cancel := s.Subscribe(jv.ID)
	defer cancel()
	for len(ch) > 0 { // drain the queued/running transitions
		<-ch
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Shutdown(context.Background()) // blocks on the gated run
	}()
	select {
	case _, open := <-ch:
		if open {
			t.Fatal("received an event instead of a close")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("subscriber not disconnected at shutdown")
	}
	if late, _ := s.Subscribe(jv.ID); late != nil {
		if _, open := <-late; open {
			t.Fatal("subscription during drain delivered events")
		}
	}
	close(g.release) // let the run finish and the shutdown complete
	<-done
}

// promLineRE validates one exposition line: a comment or a sample of
// the form name{labels} value.
var promLineRE = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? [-+0-9.eE]+(e[-+]?[0-9]+)?)$`)

// checkPromText validates the exposition format strictly enough to
// catch real breakage: every line parses, every sample's family was
// declared by a preceding TYPE line.
func checkPromText(t *testing.T, text string) {
	t.Helper()
	typed := map[string]bool{}
	n := 0
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !promLineRE.MatchString(line) {
			t.Fatalf("unparseable exposition line %q", line)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		// Histogram samples carry the family name plus a fixed suffix
		// (x_bucket/x_sum/x_count under "# TYPE x histogram").
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if s, ok := strings.CutSuffix(name, suf); ok && typed[s] {
				base = s
				break
			}
		}
		if !typed[base] {
			t.Errorf("sample %q precedes its TYPE declaration", line)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no samples in exposition")
	}
}

// TestMetricsParsesUnderLoad scrapes /metrics concurrently with job
// traffic and checks every scrape parses as Prometheus text exposition
// with the expected families present.
func TestMetricsParsesUnderLoad(t *testing.T) {
	svc := newTestService(t, 2)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/graphs",
		GraphSpec{Name: "g", Type: "rmat", Scale: 6, Seed: 1}, nil); code != http.StatusCreated {
		t.Fatal("register failed")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // job traffic while scraping
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
				jobRequest{Graph: "g", Algorithm: "PR", Options: chaos.Options{Seed: int64(i%5 + 1)}}, nil)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for i := 0; i < 25; i++ {
		resp, err := client.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		var b strings.Builder
		if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		checkPromText(t, b.String())
		for _, want := range []string{"chaos_jobs{state=\"done\"}", "chaos_queue_depth", "chaos_running",
			"chaos_result_cache_hits_total", "chaos_workers 2"} {
			if !strings.Contains(b.String(), want) {
				t.Fatalf("scrape %d missing %q:\n%s", i, want, b.String())
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestJobEventsSSE drives the real SSE endpoint end to end: the stream
// opens with a state snapshot, relays transitions, and closes after
// the terminal event. Any progress ticks the run emits in between must
// be well-formed and ordered.
func TestJobEventsSSE(t *testing.T) {
	svc := newTestService(t, 1)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/graphs",
		GraphSpec{Name: "g", Type: "rmat", Scale: 7, Seed: 1}, nil); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	var jv JobView
	if code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
		jobRequest{Graph: "g", Algorithm: "PR", Options: chaos.Options{Machines: 2, Seed: 7}}, &jv); code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}

	resp, err := client.Get(ts.URL + "/v1/jobs/" + jv.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Parse the stream to completion: the handler closes it after the
	// terminal state event.
	var events []JobEvent
	scanner := bufio.NewScanner(resp.Body)
	var evType string
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			evType = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev JobEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("undecodable SSE data %q: %v", line, err)
			}
			if ev.Type != evType {
				t.Errorf("frame event name %q vs payload type %q", evType, ev.Type)
			}
			events = append(events, ev)
		case line == "":
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	if events[0].Type != EventState {
		t.Fatalf("stream must open with a state snapshot, got %s", events[0].Type)
	}
	final := events[len(events)-1]
	if final.Type != EventState || final.Job.State != JobDone {
		t.Fatalf("stream must end at the terminal state, got %s/%s", final.Type, final.Job.State)
	}
	lastIter := 0
	for _, ev := range events {
		if ev.Job.ID != jv.ID {
			t.Fatalf("event for job %s on %s's stream", ev.Job.ID, jv.ID)
		}
		if ev.Job.Result != nil || ev.Job.Report != nil {
			t.Error("SSE event carries a result payload")
		}
		if ev.Type == EventProgress {
			if ev.Job.Progress == nil {
				t.Fatal("progress event without a progress snapshot")
			}
			if ev.Job.Progress.Iterations <= lastIter {
				t.Errorf("progress iterations regressed: %d after %d", ev.Job.Progress.Iterations, lastIter)
			}
			lastIter = ev.Job.Progress.Iterations
		}
	}
	// The done job's full payload is still one GET away.
	full := pollJob(t, client, ts.URL, jv.ID)
	if full.Result == nil || full.Report == nil {
		t.Error("GET /v1/jobs/{id} after the stream lost the payload")
	}

	// A stream opened on an already-finished job is just the snapshot.
	resp2, err := client.Get(ts.URL + "/v1/jobs/" + jv.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var b strings.Builder
	if _, err := bufio.NewReader(resp2.Body).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "event: "); got != 1 {
		t.Fatalf("terminal-job stream held %d events, want 1 snapshot:\n%s", got, b.String())
	}

	// Unknown jobs 404 before any stream starts.
	resp3, err := client.Get(ts.URL + "/v1/jobs/j999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("events for unknown job: %d, want 404", resp3.StatusCode)
	}
}

// TestComputeBudgetShares: the scheduler divides its compute budget by
// the concurrency a starting job will see — a lone job on an idle pool
// gets the whole budget, while jobs started out of a burst divide it
// by the pool size, so the shares of a loaded pool sum to at most the
// budget instead of every job taking GOMAXPROCS.
func TestComputeBudgetShares(t *testing.T) {
	g := newGate()
	s := startScheduler(Config{Workers: 2, ComputeBudget: 8}, g.run)
	defer func() {
		close(g.release)
		s.Shutdown(context.Background())
	}()

	// A lone job on an idle pool: the whole budget.
	a, _ := s.Submit("g", "PR", chaos.Options{Seed: 1})
	waitFor(t, "first job running", func() bool {
		jv, _ := s.Get(a.ID)
		return jv.State == JobRunning
	})
	// A job starting beside it divides by the pool's concurrency.
	b, _ := s.Submit("g", "PR", chaos.Options{Seed: 2})
	waitFor(t, "second job running", func() bool {
		jv, _ := s.Get(b.ID)
		return jv.State == JobRunning
	})
	// Backlog counts toward anticipated concurrency: jobs queued behind
	// a full pool will also start with the divided share.
	c, _ := s.Submit("g", "PR", chaos.Options{Seed: 3})
	d, _ := s.Submit("g", "PR", chaos.Options{Seed: 4})
	g.release <- struct{}{} // finish one running job; a queued one starts
	g.release <- struct{}{}
	waitFor(t, "backlog jobs running", func() bool {
		cv, _ := s.Get(c.ID)
		dv, _ := s.Get(d.ID)
		return cv.State == JobRunning && dv.State == JobRunning
	})

	s.mu.Lock()
	shareA := s.jobs[a.ID].computeShare
	shareB := s.jobs[b.ID].computeShare
	shareC := s.jobs[c.ID].computeShare
	shareD := s.jobs[d.ID].computeShare
	s.mu.Unlock()
	if shareA != 8 {
		t.Errorf("lone job's share = %d, want the whole budget 8", shareA)
	}
	if shareB != 4 {
		t.Errorf("second job's share = %d, want 8/2 = 4", shareB)
	}
	// C and D each started with the pool saturated: 8/2 = 4 apiece, so
	// the concurrently running shares sum to the budget.
	if shareC != 4 || shareD != 4 {
		t.Errorf("backlog shares = %d/%d, want 4/4 (sum within the budget)", shareC, shareD)
	}
}
