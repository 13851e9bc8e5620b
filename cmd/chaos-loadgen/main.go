// chaos-loadgen drives a running chaos-serve instance with concurrent
// job submitters and reports serving latency percentiles: it is the
// closed-loop benchmark behind BENCH_serve.json, a one-host record CI's
// loadgen smoke sanity-checks and nothing gates (the serving trajectory
// is bench/'s serve-native-mix workload).
//
// Each of -concurrency workers submits jobs (POST /v1/jobs), follows
// the run over the SSE event stream (falling back to polling if the
// stream breaks), and reads the final job view for server-side
// timestamps. Every job gets a distinct seed so the result cache never
// answers — the point is to measure execution, not memoization. 429
// admission rejections are honored by sleeping the server's
// Retry-After and retrying; they are counted, not failures.
//
// Usage:
//
//	chaos-loadgen -addr 127.0.0.1:8080 -jobs 50 -concurrency 8
//	chaos-loadgen -jobs 200 -concurrency 16 -alg SSSP -scale 10 -out BENCH_serve.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chaos/internal/cli"
	"chaos/internal/obs"
)

// Wire mirrors of the chaos-serve API types (README.md): only the
// fields the load generator reads, so service-side additions never
// break it.
type graphSpec struct {
	Name  string `json:"name,omitempty"`
	Type  string `json:"type"`
	Scale int    `json:"scale,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
}

type graphInfo struct {
	ID string `json:"id"`
}

type jobOptions struct {
	Machines int    `json:"machines,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Engine   string `json:"engine,omitempty"`
}

type jobRequest struct {
	Graph     string     `json:"graph"`
	Algorithm string     `json:"algorithm"`
	Options   jobOptions `json:"options"`
}

type jobView struct {
	ID         string     `json:"id"`
	State      string     `json:"state"`
	TraceID    string     `json:"traceId,omitempty"`
	Error      string     `json:"error,omitempty"`
	EnqueuedAt time.Time  `json:"enqueuedAt"`
	StartedAt  *time.Time `json:"startedAt,omitempty"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
}

type jobEvent struct {
	Type string  `json:"type"`
	Job  jobView `json:"job"`
}

// sample is one completed job's measurements.
type sample struct {
	jobID            string
	traceID          string  // the job's end-to-end trace (GET /v1/traces/{id})
	submitSeconds    float64 // successful POST /v1/jobs round-trip
	e2eSeconds       float64 // submit start -> terminal state observed
	queueWaitSeconds float64 // server-side StartedAt - EnqueuedAt
	hasQueueWait     bool
	failed           bool
}

// quantiles is the latency summary serialized per metric.
type quantiles struct {
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Count int     `json:"count"`
}

// serveBench is the BENCH_serve.json record: wall-clock numbers of one
// loadgen run on one host, read by the CI smoke
// (scripts/serve-loadgen-smoke.sh).
type serveBench struct {
	Experiment       string    `json:"experiment"`
	GeneratedAt      string    `json:"generated_at"`
	Jobs             int       `json:"jobs"`
	Concurrency      int       `json:"concurrency"`
	Algorithm        string    `json:"algorithm"`
	GraphScale       int       `json:"graph_scale"`
	Machines         int       `json:"machines"`
	Engine           string    `json:"engine"`
	WallSeconds      float64   `json:"wall_seconds"`
	JobsPerSecond    float64   `json:"jobs_per_second"`
	Failed           int       `json:"failed"`
	Rejected429      int       `json:"rejected_429"`
	SubmitSeconds    quantiles `json:"submit_seconds"`
	E2ESeconds       quantiles `json:"e2e_seconds"`
	QueueWaitSeconds quantiles `json:"queue_wait_seconds"`
}

func main() {
	logger := cli.NewLogger("chaos-loadgen")
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "chaos-serve address (host:port or http:// URL)")
		jobs        = flag.Int("jobs", 50, "total jobs to run")
		concurrency = flag.Int("concurrency", 8, "concurrent submitters")
		alg         = flag.String("alg", "PR", "algorithm for every job")
		scale       = flag.Int("scale", 7, "R-MAT scale of the registered benchmark graph")
		machines    = flag.Int("machines", 2, "cluster size per job")
		engine      = flag.String("engine", "sim", "execution engine per job: sim or native")
		seedBase    = flag.Int64("seed-base", 10_000, "seed of job i is seed-base+i (distinct seeds defeat the result cache)")
		out         = flag.String("out", "BENCH_serve.json", "benchmark record path (empty disables)")
		jobTimeout  = flag.Duration("job-timeout", 2*time.Minute, "per-job budget from submit to terminal state")
	)
	flag.Parse()
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	if *jobs <= 0 || *concurrency <= 0 {
		cli.Fatal(logger, "bad flags", fmt.Errorf("-jobs and -concurrency must be positive (got %d, %d)", *jobs, *concurrency))
	}

	client := &http.Client{} // no global timeout: SSE streams are long-lived
	graphID, err := registerGraph(client, base, *scale)
	if err != nil {
		cli.Fatal(logger, "registering benchmark graph", err)
	}
	logger.Info("graph registered", "id", graphID, "scale", *scale)

	var (
		rejected atomic.Int64
		mu       sync.Mutex
		samples  []sample
	)
	idx := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				req := jobRequest{
					Graph:     graphID,
					Algorithm: *alg,
					Options:   jobOptions{Machines: *machines, Seed: *seedBase + int64(i), Engine: *engine},
				}
				tp, tid := traceparentFor(i)
				s := runJob(client, base, req, tp, tid, *jobTimeout, &rejected)
				if s.failed {
					logger.Error("job failed", "index", i, "job", s.jobID, "trace", s.traceID)
				}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < *jobs; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	wall := time.Since(start).Seconds()

	rec := summarize(samples, wall)
	rec.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rec.Jobs, rec.Concurrency = *jobs, *concurrency
	rec.Algorithm, rec.GraphScale, rec.Machines, rec.Engine = *alg, *scale, *machines, *engine
	rec.Rejected429 = int(rejected.Load())

	fmt.Printf("jobs               %d (%d failed, %d rejected-then-retried)\n", rec.Jobs, rec.Failed, rec.Rejected429)
	fmt.Printf("wall clock         %.3fs (%.1f jobs/s)\n", rec.WallSeconds, rec.JobsPerSecond)
	fmt.Printf("submit latency     p50 %.4fs  p95 %.4fs  p99 %.4fs\n", rec.SubmitSeconds.P50, rec.SubmitSeconds.P95, rec.SubmitSeconds.P99)
	fmt.Printf("e2e job latency    p50 %.4fs  p95 %.4fs  p99 %.4fs\n", rec.E2ESeconds.P50, rec.E2ESeconds.P95, rec.E2ESeconds.P99)
	fmt.Printf("queue wait         p50 %.4fs  p95 %.4fs  p99 %.4fs\n", rec.QueueWaitSeconds.P50, rec.QueueWaitSeconds.P95, rec.QueueWaitSeconds.P99)
	printTraces(samples)

	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			cli.Fatal(logger, "encoding record", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			cli.Fatal(logger, "writing record", err)
		}
		logger.Info("record written", "path", *out)
	}
	if rec.Failed > 0 {
		os.Exit(1)
	}
}

// registerGraph registers the shared benchmark graph and returns its id.
// A fixed generator seed keeps the graph identical across runs, so only
// the job seeds vary.
func registerGraph(client *http.Client, base string, scale int) (string, error) {
	body, _ := json.Marshal(graphSpec{Name: "loadgen", Type: "rmat", Scale: scale, Seed: 42})
	resp, err := client.Post(base+"/v1/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("POST /v1/graphs: %s", resp.Status)
	}
	var g graphInfo
	if err := json.NewDecoder(resp.Body).Decode(&g); err != nil {
		return "", err
	}
	return g.ID, nil
}

// traceSeed distinguishes this loadgen process's traces; paired with
// the job index it derives one trace per job (see internal/obs: ids are
// derived, never random).
var traceSeed = fmt.Sprintf("chaos-loadgen/%d/%d", os.Getpid(), time.Now().UnixNano())

// traceparentFor mints the W3C traceparent for job i. The load
// generator is the trace's origin: the server adopts the trace id and
// parents its request span under the span id sent here, so the job's
// tree records the submission as a remote caller.
func traceparentFor(i int) (traceparent, traceID string) {
	t := obs.DeriveTraceID(traceSeed, uint64(i))
	s := obs.DeriveSpanID(t.String()+"/loadgen", uint64(i))
	return obs.Traceparent(t, s), t.String()
}

// runJob submits one job and drives it to a terminal state, measuring
// as it goes. Nothing here is fatal: every error path marks the sample
// failed so the run's record reflects it. The submission carries the
// given traceparent so the server stitches the job's trace to ours; the
// trace id rides the sample into the summary.
func runJob(client *http.Client, base string, req jobRequest, traceparent, traceID string, timeout time.Duration, rejected *atomic.Int64) sample {
	body, _ := json.Marshal(req)
	start := time.Now()
	deadline := start.Add(timeout)
	var jv jobView
	for {
		if time.Now().After(deadline) {
			return sample{traceID: traceID, failed: true}
		}
		postStart := time.Now()
		post, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return sample{traceID: traceID, failed: true}
		}
		post.Header.Set("Content-Type", "application/json")
		post.Header.Set("traceparent", traceparent)
		resp, err := client.Do(post)
		if err != nil {
			return sample{traceID: traceID, failed: true}
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			// Admission control: honor the backlog-derived Retry-After
			// (the service never answers 0; guard anyway).
			rejected.Add(1)
			wait, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			resp.Body.Close()
			if wait <= 0 {
				wait = 1
			}
			time.Sleep(time.Duration(wait) * time.Second)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			resp.Body.Close()
			return sample{traceID: traceID, failed: true}
		}
		err = json.NewDecoder(resp.Body).Decode(&jv)
		resp.Body.Close()
		if err != nil || jv.ID == "" {
			return sample{traceID: traceID, failed: true}
		}
		// Prefer the server's view of the trace id: it equals ours when
		// the traceparent was honored, and still identifies the job's
		// trace if the server ever declines to adopt it.
		if jv.TraceID != "" {
			traceID = jv.TraceID
		}
		s := sample{jobID: jv.ID, traceID: traceID, submitSeconds: time.Since(postStart).Seconds()}
		final, ok := follow(client, base, jv.ID, deadline)
		if !ok {
			s.failed = true
			return s
		}
		s.e2eSeconds = time.Since(start).Seconds()
		s.failed = final.State != "done"
		if final.StartedAt != nil {
			s.queueWaitSeconds = final.StartedAt.Sub(final.EnqueuedAt).Seconds()
			s.hasQueueWait = true
		}
		return s
	}
}

// follow watches the job over SSE until it reaches a terminal state; if
// the stream cannot be opened or breaks mid-flight (a dropped lagging
// subscriber, a draining server), it falls back to polling the job view.
func follow(client *http.Client, base, id string, deadline time.Time) (jobView, bool) {
	if jv, ok := followSSE(client, base, id, deadline); ok {
		return jv, true
	}
	return pollJob(client, base, id, deadline)
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

func followSSE(client *http.Client, base, id string, deadline time.Time) (jobView, bool) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return jobView{}, false
	}
	resp, err := client.Do(req)
	if err != nil {
		return jobView{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobView{}, false
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if time.Now().After(deadline) {
			return jobView{}, false
		}
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev jobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			continue
		}
		if ev.Type == "state" && terminal(ev.Job.State) {
			return ev.Job, true
		}
	}
	return jobView{}, false // stream broke before a terminal event
}

func pollJob(client *http.Client, base, id string, deadline time.Time) (jobView, bool) {
	for !time.Now().After(deadline) {
		resp, err := client.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return jobView{}, false
		}
		var jv jobView
		err = json.NewDecoder(resp.Body).Decode(&jv)
		resp.Body.Close()
		if err == nil && terminal(jv.State) {
			return jv, true
		}
		time.Sleep(100 * time.Millisecond)
	}
	return jobView{}, false
}

// slowestTraces is how many of the slowest completed jobs get their
// trace ids printed, so the tail of the latency distribution is one
// `GET /v1/traces/{id}` away from a span-by-span explanation.
const slowestTraces = 5

// printTraces points the operator at the interesting traces: the
// slowest completed jobs (latency-tail forensics) and every failed job.
func printTraces(samples []sample) {
	var done, failed []sample
	for _, s := range samples {
		switch {
		case s.failed:
			failed = append(failed, s)
		case s.traceID != "":
			done = append(done, s)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].e2eSeconds > done[j].e2eSeconds })
	if len(done) > slowestTraces {
		done = done[:slowestTraces]
	}
	for _, s := range done {
		fmt.Printf("slowest            %s  e2e %.4fs  trace %s\n", s.jobID, s.e2eSeconds, s.traceID)
	}
	for _, s := range failed {
		id := s.jobID
		if id == "" {
			id = "(no job id)" // failed before the server answered
		}
		fmt.Printf("failed             %s  trace %s\n", id, s.traceID)
	}
}

// summarize folds the samples into the benchmark record. Failed jobs
// count toward Failed but contribute no latency samples — a timeout
// would otherwise read as a (huge) legitimate latency.
func summarize(samples []sample, wallSeconds float64) serveBench {
	rec := serveBench{Experiment: "serve", WallSeconds: wallSeconds}
	var submit, e2e, wait []float64
	completed := 0
	for _, s := range samples {
		if s.failed {
			rec.Failed++
			continue
		}
		completed++
		submit = append(submit, s.submitSeconds)
		e2e = append(e2e, s.e2eSeconds)
		if s.hasQueueWait {
			wait = append(wait, s.queueWaitSeconds)
		}
	}
	if wallSeconds > 0 {
		rec.JobsPerSecond = float64(completed) / wallSeconds
	}
	rec.SubmitSeconds = percentiles(submit)
	rec.E2ESeconds = percentiles(e2e)
	rec.QueueWaitSeconds = percentiles(wait)
	return rec
}

// percentiles computes the summary over a sample set using the
// nearest-rank method; an empty set yields all zeros.
func percentiles(v []float64) quantiles {
	if len(v) == 0 {
		return quantiles{}
	}
	sort.Float64s(v)
	rank := func(p float64) float64 {
		i := int(p*float64(len(v))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(v) {
			i = len(v) - 1
		}
		return v[i]
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return quantiles{
		P50:   rank(0.50),
		P95:   rank(0.95),
		P99:   rank(0.99),
		Max:   v[len(v)-1],
		Mean:  sum / float64(len(v)),
		Count: len(v),
	}
}
