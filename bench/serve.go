package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"chaos"
	"chaos/internal/service"
)

const (
	serveClients  = 2 // closed-loop clients, each waiting for its reply
	serveMachines = 2 // cluster size every job asks for
	serveRound    = 5 // jobs per round; the last one repeats the third
	slowestTraced = 10
)

// serveAlgs is the mix: client c's job i runs serveAlgs[(i+c) mod 4].
var serveAlgs = []string{"PR", "WCC", "SSSP", "BFS"}

// jobSpec is one submission of the mix.
type jobSpec struct {
	alg  string
	seed int64
}

// jobFor returns client c's job i. The last job of every round repeats
// the client's own job i-2 verbatim; the loop is closed, so that job has
// finished and the repeat is a certain result-cache hit.
func jobFor(seed int64, c, i int) jobSpec {
	if i%serveRound == serveRound-1 {
		i -= 2
	}
	return jobSpec{alg: serveAlgs[(i+c)%len(serveAlgs)], seed: seed*1_000_000 + int64(c)*100_000 + int64(i) + 1}
}

// jobSample is one job as its client saw it.
type jobSample struct {
	spec     jobSpec
	submitS  float64 // POST round trip
	e2eS     float64 // submit start to terminal state observed
	doneAt   time.Time
	view     service.JobView // the full final view
	rejected bool            // answered 429
	failed   bool
	span     int
}

// served is a job service behind a test HTTP server, with the mix's graph
// registered and its first view materialized.
type served struct {
	svc     *service.Service
	srv     *httptest.Server
	graphID string
}

// openServed is the serving workload's set-up.
func openServed(cfg config, dir string, tr *tracer) (*served, error) {
	op := tr.newOp()
	top := tr.begin(0, op, "setup")
	defer tr.end(top)
	id := tr.begin(top, op, "service.open")
	svc, err := service.Open(service.Config{
		Workers: 2,
		DataDir: dir,
		BaseOptions: chaos.Options{
			Engine: chaos.EngineNative, ChunkBytes: 64 << 10, LatencyScale: 1.0 / 64,
		},
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	s := &served{svc: svc, srv: httptest.NewServer(svc.Handler())}
	id = tr.begin(top, op, "service.register")
	body, _ := json.Marshal(service.GraphSpec{Name: "mix", Type: "rmat", Scale: cfg.size.serveScale, Weighted: true, Seed: cfg.seed})
	resp, err := http.Post(s.srv.URL+"/v1/graphs", "application/json", bytes.NewReader(body))
	tr.end(id)
	if err != nil {
		s.close()
		return nil, err
	}
	defer resp.Body.Close()
	var info service.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusCreated {
		s.close()
		return nil, fmt.Errorf("registering graph: %s: %v", resp.Status, err)
	}
	s.graphID = info.ID
	id = tr.begin(top, op, "service.view")
	if g, ok := svc.Catalog().Get(info.ID); ok {
		sink += len(g.View(chaos.ViewUndirected))
	}
	tr.end(id)
	return s, nil
}

func (s *served) close() {
	s.srv.CloseClientConnections()
	s.srv.Close()
	s.svc.Shutdown(context.Background())
}

// runJob submits one job, follows it over its SSE stream to a terminal
// state as chaos-loadgen does, and fetches the full final view.
func (s *served) runJob(tr *tracer, spec jobSpec) jobSample {
	out := jobSample{spec: spec, failed: true}
	op := tr.newOp()
	out.span = tr.begin(0, op, "job:"+spec.alg)
	defer tr.end(out.span)
	body := fmt.Sprintf(`{"graph":%q,"algorithm":%q,"options":{"machines":%d,"seed":%d}}`, s.graphID, spec.alg, serveMachines, spec.seed)

	start := time.Now()
	id := tr.begin(out.span, op, "submit")
	resp, err := http.Post(s.srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		tr.end(id)
		return out
	}
	var jv service.JobView
	err = json.NewDecoder(resp.Body).Decode(&jv)
	resp.Body.Close()
	tr.end(id)
	out.submitS = time.Since(start).Seconds()
	out.rejected = resp.StatusCode == http.StatusTooManyRequests
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return out
	}

	if jv.State == service.JobQueued || jv.State == service.JobRunning {
		id = tr.begin(out.span, op, "wait")
		ok := s.follow(jv.ID)
		tr.end(id)
		if !ok {
			return out
		}
	}
	out.doneAt = time.Now()
	out.e2eS = out.doneAt.Sub(start).Seconds()

	id = tr.begin(out.span, op, "fetch")
	defer tr.end(id)
	if err := s.get("/v1/jobs/"+jv.ID, &out.view); err != nil {
		return out
	}
	out.failed = out.view.State != service.JobDone || out.view.Result == nil || out.view.Report == nil
	return out
}

// follow reads the job's event stream until a terminal state event.
func (s *served) follow(id string) bool {
	resp, err := http.Get(s.srv.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.JobEvent
		if json.Unmarshal([]byte(data), &ev) != nil || ev.Type != service.EventState {
			continue
		}
		if st := ev.Job.State; st != service.JobQueued && st != service.JobRunning {
			return true
		}
	}
	return false
}

func (s *served) get(path string, v any) error {
	resp, err := http.Get(s.srv.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func runServe(cfg config) (*result, error) {
	const name = "serve-native-mix"
	tr := newTracer(cfg.trace)
	m := newMetrics(cfg.trace)
	tmp, err := os.MkdirTemp(cfg.out, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Set-up, repeated for setup_s's median (the traced run does not
	// report it); the last service stays up.
	var s *served
	var setups []float64
	for i := 0; i == 0 || !cfg.trace && i < 2*cfg.size.setups+1; i++ {
		if s != nil {
			s.close()
		}
		t := time.Now()
		if s, err = openServed(cfg, fmt.Sprintf("%s/data%d", tmp, i), tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer s.close()

	// The closed loop: each client runs whole rounds until the time is up.
	runtime.GC() // the set-ups' garbage is not the timed region's to collect
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	samples := make([][]jobSample, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range samples {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A client stops on a round boundary, so the repeats stay
			// one job in five.
			for i := 0; i%serveRound != 0 || i < serveRound*cfg.size.minRuns || time.Since(start) < cfg.seconds; i++ {
				samples[c] = append(samples[c], s.runJob(tr, jobFor(cfg.seed, c, i)))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	var jobs []jobSample
	for _, cs := range samples {
		jobs = append(jobs, cs...)
	}
	mem := memSince(&before, len(jobs))
	rss := peakRSSMB()
	var stats service.Stats
	if err := s.get("/v1/stats", &stats); err != nil {
		return nil, err
	}

	id := tr.begin(0, tr.newOp(), "verify")
	unverified, viewEdges := verifyServed(cfg, jobs)
	tr.end(id)

	var e2e, submit, wait, run, lag, hit []float64
	var work float64
	res := &result{Attempted: len(jobs)}
	rejected, hits := 0, 0
	for _, j := range jobs {
		if j.rejected {
			rejected++
		}
		if j.failed {
			res.Failed++
			continue
		}
		e2e = append(e2e, j.e2eS)
		submit = append(submit, j.submitS)
		if j.view.CacheHit {
			hits++
			hit = append(hit, j.e2eS)
			continue
		}
		work += float64(viewEdges[j.spec.alg]) * float64(j.view.Report.Iterations)
		wait = append(wait, j.view.StartedAt.Sub(j.view.EnqueuedAt).Seconds())
		run = append(run, j.view.FinishedAt.Sub(*j.view.StartedAt).Seconds())
		lag = append(lag, j.doneAt.Sub(*j.view.FinishedAt).Seconds())
	}
	if hits*serveRound != len(jobs) {
		fmt.Fprintf(os.Stderr, "bench: verify %s: %d cache hits in %d jobs, want one in %d\n", name, hits, len(jobs), serveRound)
		unverified++
	}
	res.Failed += unverified
	res.Correct = unverified == 0 && len(e2e) > 0
	fmt.Printf("%s: seed %d, gomaxprocs %d, %d jobs in %.2f s by %d clients, e2e %s s\n", name, cfg.seed, runtime.GOMAXPROCS(0), len(jobs), wall, serveClients, describe(e2e))
	if !cfg.trace {
		m.set("setup_s", median(setups))
		// The mean, not the median: the median of a four-algorithm mix
		// lies where its distribution is sparse and spread 15-20 % between
		// runs; the mean spread 4 %.
		m.set("op_s", mean(e2e))
		m.set("edges_per_s", work/wall)
		m.set("alloc_mb_per_op", mem.allocMB)
		res.Metrics = m.report()
		return res, nil
	}

	m.set("service.jobs_per_s", float64(len(e2e))/wall)
	m.set("service.e2e_p50_s", median(e2e))
	m.set("service.e2e_p95_s", quantile(e2e, 0.95))
	m.set("service.submit_p50_s", median(submit))
	m.set("service.queue_wait_p50_s", median(wait))
	m.set("service.run_p50_s", median(run))
	m.set("service.notify_lag_p50_s", median(lag))
	m.set("service.cache_hit_p50_s", median(hit))
	m.set("service.cache_hit_ratio", float64(hits)/float64(max(len(jobs), 1)))
	m.set("service.engine_share", stats.NativeWallSeconds/(serveClients*wall))
	m.set("service.rejected_429", float64(rejected))
	if d := stats.Durable; d != nil && d.WAL.Fsyncs > 0 {
		m.set("durable.wal_records_per_fsync", float64(d.WAL.Records)/float64(d.WAL.Fsyncs))
	}
	m.setRuntime(mem, rss)

	// The server's own span tree for the slowest jobs goes into the
	// trace file beside the client's spans.
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].e2eS > jobs[b].e2eS })
	for _, j := range jobs[:min(slowestTraced, len(jobs))] {
		var doc json.RawMessage
		if err := s.get("/v1/jobs/"+j.view.ID+"/trace", &doc); err != nil {
			return nil, err
		}
		tr.attach(j.span, doc)
	}
	if err := runProbes(m, tr, cfg, tmp); err != nil {
		return nil, err
	}
	res.Metrics = m.report()
	return res, tr.write(cfg.out, name)
}

// verifyServed compares every served job's result summary with a direct
// chaos.RunPrepared call for its algorithm on the same graph and options
// (summaries do not depend on the job seed: the native plane's fold order
// is fixed by the layout). It returns the number of jobs that differ and
// each algorithm's view size in edges.
func verifyServed(cfg config, jobs []jobSample) (bad int, viewEdges map[string]int) {
	raw := chaos.GenerateRMAT(cfg.size.serveScale, true, cfg.seed)
	viewEdges = make(map[string]int)
	want := make(map[string]*chaos.Result)
	opt := chaos.Options{
		Engine: chaos.EngineNative, ChunkBytes: 64 << 10, LatencyScale: 1.0 / 64,
		Machines: serveMachines, Seed: cfg.seed,
	}
	for _, alg := range serveAlgs {
		view, _ := chaos.ViewFor(alg)
		edges := view.Apply(raw)
		viewEdges[alg] = len(edges)
		res, _, err := chaos.RunPrepared(alg, edges, 1<<cfg.size.serveScale, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: verify: direct %s run: %v\n", alg, err)
			return len(jobs), viewEdges
		}
		want[alg] = res
	}
	for _, j := range jobs {
		if j.failed {
			continue // already counted as a failed operation
		}
		if w := want[j.spec.alg]; j.view.Result.Vertices != w.Vertices || !maps.Equal(j.view.Result.Summary, w.Summary) {
			fmt.Fprintf(os.Stderr, "bench: verify: job %s (%s): summary %v, direct run %v\n", j.view.ID, j.spec.alg, j.view.Result.Summary, w.Summary)
			bad++
		}
	}
	return bad, viewEdges
}
