package service

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"chaos"
)

// promWriter accumulates Prometheus text exposition format (the 0.0.4
// text format every Prometheus-compatible scraper speaks). The service
// has a handful of scalar counters and two small label families, so a
// dependency-free emitter beats vendoring a client library the
// container cannot fetch anyway.
type promWriter struct {
	b strings.Builder
}

// family starts a metric family with its HELP/TYPE preamble.
func (p *promWriter) family(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// labelEscaper applies exactly the label-value escapes the exposition
// format defines — backslash, double quote, newline — and nothing else.
// %q would over-escape: a label value containing, say, a tab or a
// non-ASCII rune must pass through verbatim, not as a Go escape
// sequence the scraper would take literally.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// sample emits one sample line; labels come as name=value pairs.
func (p *promWriter) sample(name string, labels [][2]string, value float64) {
	p.b.WriteString(name)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				p.b.WriteByte(',')
			}
			p.b.WriteString(l[0])
			p.b.WriteString(`="`)
			p.b.WriteString(labelEscaper.Replace(l[1]))
			p.b.WriteByte('"')
		}
		p.b.WriteByte('}')
	}
	// %g prints integers without an exponent or trailing zeros, and the
	// format tolerates either form for every metric type.
	fmt.Fprintf(&p.b, " %g\n", value)
}

// scalar is family + one unlabeled sample, the common case here.
func (p *promWriter) scalar(name, help, typ string, value float64) {
	p.family(name, help, typ)
	p.sample(name, nil, value)
}

// latencyBuckets are the shared duration bounds (seconds) of every
// histogram the service exports. One layout for HTTP requests, queue
// wait and job wall time keeps the families comparable on a dashboard:
// sub-millisecond handler hits through minute-long simulations.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// histogram is a fixed-bucket latency histogram with the cumulative
// semantics the Prometheus histogram type defines. One mutex per
// histogram: observations come from HTTP handlers and scheduler
// workers, scrapes from /metrics, and none of them are hot enough to
// justify anything cleverer.
type histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending
	counts []uint64  // len(bounds)+1; the extra slot is the +Inf bucket
	sum    float64
	count  uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// observe files one value (seconds) into its bucket.
func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// snapshot copies the counters for rendering.
func (h *histogram) snapshot() (counts []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...), h.sum, h.count
}

// histogram renders one labeled series of a histogram family:
// cumulative _bucket lines per bound plus +Inf, then _sum and _count.
func (p *promWriter) histogram(name string, labels [][2]string, h *histogram) {
	counts, sum, count := h.snapshot()
	var cum uint64
	for i, b := range h.bounds {
		cum += counts[i]
		ls := append(append([][2]string{}, labels...),
			[2]string{"le", strconv.FormatFloat(b, 'g', -1, 64)})
		p.sample(name+"_bucket", ls, float64(cum))
	}
	ls := append(append([][2]string{}, labels...), [2]string{"le", "+Inf"})
	p.sample(name+"_bucket", ls, float64(count))
	p.sample(name+"_sum", labels, sum)
	p.sample(name+"_count", labels, float64(count))
}

// routeUnmatched is the route label for requests no mux pattern
// claimed (404s, bad methods). Real routes pre-seed their own series.
const routeUnmatched = "unmatched"

// newHistograms builds one latency histogram per name, each pre-seeded
// so the first scrape sees zeros, not absent series (absent-vs-zero
// matters to alerting). The map stays read-only afterward, which is what
// makes lock-free concurrent lookup safe.
func newHistograms(names ...string) map[string]*histogram {
	m := make(map[string]*histogram, len(names))
	for _, n := range names {
		m[n] = newHistogram(latencyBuckets)
	}
	return m
}

// observeHTTP files a request duration under its route pattern,
// folding unknown patterns into the unmatched series.
func (s *Service) observeHTTP(route string, seconds float64) {
	h, ok := s.httpDur[route]
	if !ok {
		h = s.httpDur[routeUnmatched]
	}
	h.observe(seconds)
}

// jobStates fixes the label order so scrapes are stable and every
// state series exists from the first scrape (absent-vs-zero matters to
// alerting rules).
var jobStates = []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled}

// metricsText renders the service counters — the same surface as
// /v1/stats — in Prometheus text exposition format.
func (s *Service) metricsText() string {
	st := s.Stats()
	var p promWriter

	p.family("chaos_jobs", "Jobs in history by lifecycle state.", "gauge")
	for _, state := range jobStates {
		p.sample("chaos_jobs", [][2]string{{"state", string(state)}}, float64(st.Jobs[string(state)]))
	}
	p.scalar("chaos_queue_depth", "Jobs queued and not yet running.", "gauge", float64(st.QueueDepth))
	p.scalar("chaos_running", "Simulations currently executing.", "gauge", float64(st.Running))
	p.scalar("chaos_workers", "Size of the simulation worker pool.", "gauge", float64(st.Workers))
	p.scalar("chaos_graphs", "Graphs registered in the catalog.", "gauge", float64(st.Graphs))
	held := s.catalog.Bytes()
	p.family("chaos_catalog_bytes", "Bytes the catalog holds resident, by kind: edge records, undirected-view indexes, native edge bins.", "gauge")
	for _, k := range []struct {
		kind  string
		bytes int64
	}{{"edges", held.Edges}, {"views", held.Views}, {"bins", held.Bins}} {
		p.sample("chaos_catalog_bytes", [][2]string{{"kind", k.kind}}, float64(k.bytes))
	}
	p.scalar("chaos_update_slab_bytes", "Bytes of update-record slabs finished jobs left for later ones.", "gauge", float64(st.UpdateSlabBytes))

	p.family("chaos_jobs_submitted_total", "Job submissions by algorithm.", "counter")
	algs := make([]string, 0, len(st.PerAlgorithm))
	for alg := range st.PerAlgorithm {
		algs = append(algs, alg)
	}
	sort.Strings(algs)
	for _, alg := range algs {
		p.sample("chaos_jobs_submitted_total", [][2]string{{"algorithm", alg}}, float64(st.PerAlgorithm[alg]))
	}

	// Per-engine series are pre-seeded for both planes so a scrape sees
	// chaos_jobs_by_engine{engine="native"} 0 before the first native
	// job, not an absent series (absent-vs-zero matters to alerting).
	p.family("chaos_jobs_by_engine", "Job submissions by execution engine.", "counter")
	for _, eng := range []string{chaos.EngineSim, chaos.EngineNative} {
		p.sample("chaos_jobs_by_engine", [][2]string{{"engine", eng}}, float64(st.PerEngine[eng]))
	}
	p.scalar("chaos_native_wall_seconds_total", "Summed measured wall-clock of completed native runs.", "counter", st.NativeWallSeconds)

	// Out-of-core spill counters, always emitted (zero until a native
	// job with a memory budget actually spills) so dashboards see the
	// series before the first out-of-core run.
	p.scalar("chaos_spill_bytes_total", "Update bytes spilled to disk by native out-of-core runs, records at their in-memory size.", "counter", float64(st.SpillBytes))
	p.scalar("chaos_spill_files_total", "Spill files created by native out-of-core runs.", "counter", float64(st.SpillFiles))

	// Latency histograms. Route and engine series were pre-seeded at
	// Open, so the first scrape already names every route at zero.
	p.family("chaos_http_request_duration_seconds", "HTTP request duration by mux route pattern.", "histogram")
	routes := make([]string, 0, len(s.httpDur))
	for route := range s.httpDur {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	for _, route := range routes {
		p.histogram("chaos_http_request_duration_seconds", [][2]string{{"route", route}}, s.httpDur[route])
	}
	p.family("chaos_job_queue_wait_seconds", "Time jobs spent queued before a worker started them.", "histogram")
	p.histogram("chaos_job_queue_wait_seconds", nil, s.scheduler.queueWait)
	p.family("chaos_job_wall_seconds", "Wall-clock of completed runs by execution engine.", "histogram")
	for _, eng := range []string{chaos.EngineSim, chaos.EngineNative} {
		p.histogram("chaos_job_wall_seconds", [][2]string{{"engine", eng}}, s.scheduler.jobWall[eng])
	}

	p.scalar("chaos_result_cache_entries", "Entries in the in-memory result cache.", "gauge", float64(st.Cache.Entries))
	p.scalar("chaos_result_cache_hits_total", "Result-cache hits (memory or disk).", "counter", float64(st.Cache.Hits))
	p.scalar("chaos_result_cache_misses_total", "Result-cache misses.", "counter", float64(st.Cache.Misses))
	p.scalar("chaos_result_cache_disk_hits_total", "Hits served by the disk tier (subset of hits).", "counter", float64(st.Cache.DiskHits))

	if d := st.Cache.Disk; d != nil {
		p.scalar("chaos_result_store_entries", "Blobs in the disk result store.", "gauge", float64(d.Entries))
		p.scalar("chaos_result_store_bytes", "Bytes held by the disk result store.", "gauge", float64(d.Bytes))
		p.scalar("chaos_result_store_max_bytes", "Disk result store bound (0 = unbounded).", "gauge", float64(d.MaxBytes))
		p.scalar("chaos_result_store_evictions_total", "Blobs LRU-evicted from the disk result store.", "counter", float64(d.Evictions))
	}
	if du := st.Durable; du != nil {
		p.scalar("chaos_wal_records_total", "Journal records appended since this process opened the WAL.", "counter", float64(du.WAL.Records))
		p.scalar("chaos_wal_records_since_snapshot", "Journal records since the last compacting snapshot.", "gauge", float64(du.WAL.SinceCompact))
		p.scalar("chaos_wal_fsyncs_total", "Fsyncs the journal issued (group commit batches many records per fsync).", "counter", float64(du.WAL.Fsyncs))
		p.scalar("chaos_wal_snapshots_total", "Compacting snapshots taken since this process started.", "counter", float64(du.WAL.Snapshots))
		healthy := 1.0
		if du.LastError != "" {
			healthy = 0
		}
		p.scalar("chaos_persist_healthy", "1 while no persistence failure has occurred, 0 after the first (durability lost; see /v1/stats lastError).", "gauge", healthy)
	}
	return p.b.String()
}

// handleMetrics serves GET /metrics.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(s.metricsText()))
}
