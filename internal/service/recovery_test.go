package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chaos"
	"chaos/internal/durable"
	"chaos/internal/graph"
)

// openDurable starts a durable Service on dir without registering a
// cleanup — crash tests abandon instances on purpose.
func openDurable(t *testing.T, dir string, workers int) *Service {
	t.Helper()
	svc, err := Open(Config{Workers: workers, BaseOptions: labOptions, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// crash simulates a SIGKILL: fsync what the OS already has (a real
// crash loses at most the sync interval; the test must not race the
// batcher) and drop the instance without snapshot, drain or close.
func crash(t *testing.T, svc *Service) {
	t.Helper()
	if err := svc.persist.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	svc.persist.wal.Close()
}

func waitJob(t *testing.T, svc *Service, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		jv, ok := svc.Scheduler().Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if jv.State != JobQueued && jv.State != JobRunning {
			return jv
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

// TestCrashRecoveryEndToEnd is the acceptance scenario: register a
// graph, run a job to completion, SIGKILL, restart — the graph lists,
// the identical submission is answered from the disk result store, and
// the job history (with its result, rehydrated from disk) survived.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	svc1 := openDurable(t, dir, 2)
	if _, err := svc1.RegisterGraph(GraphSpec{Name: "rmat7", Type: "rmat", Scale: 7, Weighted: true, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	jv, err := svc1.Submit("rmat7", "PR", chaos.Options{Machines: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	first := waitJob(t, svc1, jv.ID)
	if first.State != JobDone {
		t.Fatalf("job %s: %s %s", first.ID, first.State, first.Error)
	}
	crash(t, svc1)

	svc2 := openDurable(t, dir, 2)
	t.Cleanup(func() { svc2.Shutdown(context.Background()) })

	// The graph came back — metadata only, edges still cold.
	g, ok := svc2.Catalog().Get("rmat7")
	if !ok {
		t.Fatal("graph lost across restart")
	}
	if g.Materialized() {
		t.Error("restored graph should stay cold until its first job")
	}
	if g.Vertices != 1<<7 || g.EdgeCount != 1<<11 || !g.Weighted {
		t.Errorf("restored metadata %+v", g.Info())
	}

	// The finished job came back; its result rehydrates from disk.
	old, ok := svc2.Scheduler().Get(jv.ID)
	if !ok {
		t.Fatal("job history lost across restart")
	}
	if old.State != JobDone || old.Result == nil {
		t.Fatalf("restored job %s: state %s, result %v", old.ID, old.State, old.Result)
	}
	if fmt.Sprint(old.Result.Summary) != fmt.Sprint(first.Result.Summary) {
		t.Errorf("rehydrated summary %v != original %v", old.Result.Summary, first.Result.Summary)
	}

	// The identical submission is a cache hit served from the disk
	// store — no simulation runs, same payload, and the new process's
	// memory cache was empty so the hit must have come from disk.
	hit, err := svc2.Submit("rmat7", "PR", chaos.Options{Machines: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != JobDone || !hit.CacheHit {
		t.Fatalf("resubmission: state %s cacheHit %v, want cached done", hit.State, hit.CacheHit)
	}
	if fmt.Sprint(hit.Result.Summary) != fmt.Sprint(first.Result.Summary) {
		t.Errorf("disk-cached summary %v != original %v", hit.Result.Summary, first.Result.Summary)
	}
	st := svc2.Stats()
	if st.Cache.DiskHits < 1 {
		t.Errorf("stats report %d disk hits, want >= 1: %+v", st.Cache.DiskHits, st.Cache)
	}
	if st.Durable == nil || st.Durable.LastError != "" {
		t.Errorf("durable stats %+v", st.Durable)
	}

	// New ids never collide with recovered ones.
	if hitSeq, _ := jobSeq(hit.ID); hitSeq <= 1 {
		t.Errorf("post-restart job id %s collides with recovered history", hit.ID)
	}
}

// TestRecoveryRequeuesInterruptedJobs crafts the journal a crashed
// process would leave — a graph, a running job, a queued job, a done
// job and a queued job on a vanished graph — and checks recovery:
// interrupted work re-runs to completion, the unrecoverable job fails
// with a restart reason, and the done job stays done.
func TestRecoveryRequeuesInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	w, _, err := durable.OpenWAL(filepath.Join(dir, "wal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	opts := mergeOptions(labOptions, chaos.Options{Seed: 7})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.Append(recGraph, graphRecord{
		ID: "g1", Type: "rmat", Scale: 6, Seed: 1, SpecWeighted: true,
		Weighted: true, Vertices: 1 << 6, EdgeCount: 1 << 10, Registered: now,
	}))
	must(w.Append(recJob, jobRecord{ID: "j1", Graph: "g1", Algorithm: "PR", Options: opts, State: JobRunning, EnqueuedAt: now, StartedAt: now}))
	must(w.Append(recJob, jobRecord{ID: "j2", Graph: "g1", Algorithm: "BFS", Options: opts, State: JobQueued, EnqueuedAt: now}))
	must(w.Append(recJob, jobRecord{ID: "j3", Graph: "g1", Algorithm: "WCC", Options: opts, State: JobDone, EnqueuedAt: now, FinishedAt: now}))
	must(w.Append(recJob, jobRecord{ID: "j4", Graph: "ghost", Algorithm: "PR", Options: opts, State: JobQueued, EnqueuedAt: now}))
	must(w.Append(recJob, jobRecord{ID: "j5", Graph: "g1", Algorithm: "MIS", Options: opts, State: JobRunning, Canceling: true, EnqueuedAt: now, StartedAt: now}))
	// A poison job: three restarts have each found it running. And one
	// with a restart to spare.
	must(w.Append(recJob, jobRecord{ID: "j6", Graph: "g1", Algorithm: "PR", Options: opts, State: JobRunning, Restarts: 3, EnqueuedAt: now, StartedAt: now}))
	must(w.Append(recJob, jobRecord{ID: "j7", Graph: "g1", Algorithm: "BFS", Options: opts, State: JobQueued, Restarts: 2, EnqueuedAt: now}))
	must(w.Sync())
	w.Close()

	svc := openDurable(t, dir, 2)
	t.Cleanup(func() { svc.Shutdown(context.Background()) })

	// j6 is past the restart cap: failed at once with the count as the
	// reason, in its journal record and in its trace, and never queued.
	jv6, _ := svc.Scheduler().Get("j6")
	if jv6.State != JobFailed || !strings.Contains(jv6.Error, "3 restarts") || jv6.Restarts != 3 {
		t.Errorf("j6: %s %q restarts=%d, want failed naming 3 restarts", jv6.State, jv6.Error, jv6.Restarts)
	}
	if tr, ok := svc.Scheduler().TraceInfo("j6"); !ok || !strings.Contains(fmt.Sprint(tr.spans), jv6.Error) {
		t.Errorf("j6: the trace does not carry the failure reason: %+v", tr.spans)
	}
	// j7 gets its third and last restart.
	if jv := waitJob(t, svc, "j7"); jv.State != JobDone || jv.Restarts != 3 {
		t.Errorf("j7: %s %q restarts=%d, want done with 3 restarts", jv.State, jv.Error, jv.Restarts)
	}

	// j1 (running at crash) and j2 (queued at crash) run to completion.
	for _, id := range []string{"j1", "j2"} {
		jv := waitJob(t, svc, id)
		if jv.State != JobDone {
			t.Errorf("job %s: %s %q, want done", id, jv.State, jv.Error)
		}
		if jv.Restarts != 1 {
			t.Errorf("job %s restarts = %d, want 1", id, jv.Restarts)
		}
		if jv.Result == nil || jv.Result.Vertices != 1<<6 {
			t.Errorf("job %s result %+v", id, jv.Result)
		}
	}
	// j3 stays done; its blob never existed, so the result is simply
	// absent (not an error).
	if jv, _ := svc.Scheduler().Get("j3"); jv.State != JobDone {
		t.Errorf("j3 state %s, want done", jv.State)
	}
	// j4's graph is gone: failed with a restart reason.
	jv, _ := svc.Scheduler().Get("j4")
	if jv.State != JobFailed || !strings.Contains(jv.Error, "not recoverable after restart") {
		t.Errorf("j4: %s %q, want failed with restart reason", jv.State, jv.Error)
	}
	// j5's cancellation was accepted before the crash: honored, not
	// rerun.
	jv, _ = svc.Scheduler().Get("j5")
	if jv.State != JobCanceled || !strings.Contains(jv.Error, "canceled while running") {
		t.Errorf("j5: %s %q, want canceled (accepted cancellation survives restart)", jv.State, jv.Error)
	}

	// Fresh submissions continue the id sequence past the recovered jobs.
	fresh, err := svc.Submit("g1", "Cond", chaos.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if seq, _ := jobSeq(fresh.ID); seq <= 7 {
		t.Errorf("fresh job id %s collides with recovered ids", fresh.ID)
	}
}

// TestRecoveryTornJournalTail: a crash mid-append leaves a truncated
// final record. Everything before it must recover; the torn suffix is
// discarded and the journal keeps working.
func TestRecoveryTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	svc1 := openDurable(t, dir, 1)
	if _, err := svc1.RegisterGraph(GraphSpec{Name: "keep", Type: "rmat", Scale: 6, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	crash(t, svc1)

	// Tear the tail: append half a frame to the newest segment, as if
	// the process died inside a write.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "journal-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{42, 0, 0, 0, 99, 99}); err != nil { // 6 of 8 header bytes
		t.Fatal(err)
	}
	f.Close()

	svc2 := openDurable(t, dir, 1)
	t.Cleanup(func() { svc2.Shutdown(context.Background()) })
	if _, ok := svc2.Catalog().Get("keep"); !ok {
		t.Fatal("complete records before the torn tail were lost")
	}
	// The journal still accepts writes after truncating the tear.
	if _, err := svc2.RegisterGraph(GraphSpec{Name: "after", Type: "rmat", Scale: 6, Seed: 4}); err != nil {
		t.Fatal(err)
	}

	svc2.Shutdown(context.Background())
	svc3 := openDurable(t, dir, 1)
	t.Cleanup(func() { svc3.Shutdown(context.Background()) })
	for _, id := range []string{"keep", "after"} {
		if _, ok := svc3.Catalog().Get(id); !ok {
			t.Errorf("graph %s missing after second restart", id)
		}
	}
}

// TestUploadSurvivesRestart: an uploaded edge list persists as a
// payload file, re-materializes lazily after a crash, and produces
// bit-identical results to the original process.
func TestUploadSurvivesRestart(t *testing.T) {
	edges := chaos.GenerateRMAT(6, false, 5)
	data := graph.FormatFor(1<<6, false).EncodeEdges(nil, edges)

	dir := t.TempDir()
	svc1 := openDurable(t, dir, 1)
	if _, err := svc1.RegisterGraph(GraphSpec{Name: "up", Type: "upload", Vertices: 1 << 6, Data: data}); err != nil {
		t.Fatal(err)
	}
	crash(t, svc1)

	svc2 := openDurable(t, dir, 1)
	t.Cleanup(func() { svc2.Shutdown(context.Background()) })
	jv, err := svc2.Submit("up", "BFS", chaos.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := waitJob(t, svc2, jv.ID)
	if got.State != JobDone {
		t.Fatalf("job on restored upload: %s %q", got.State, got.Error)
	}
	opt := labOptions
	opt.Seed = 3
	want, _, err := chaos.RunByNameResult("BFS", edges, 1<<6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Result.Summary) != fmt.Sprint(want.Summary) {
		t.Errorf("restored-upload summary %v != direct %v", got.Result.Summary, want.Summary)
	}
}

// TestCorruptResultBlobIsReplaced: an undecodable blob in the disk
// store must not poison its key forever — the lookup drops it, the
// deterministic rerun recomputes, and the rewritten blob serves the
// next restart.
func TestCorruptResultBlobIsReplaced(t *testing.T) {
	dir := t.TempDir()
	svc1 := openDurable(t, dir, 1)
	if _, err := svc1.RegisterGraph(GraphSpec{Name: "g", Type: "rmat", Scale: 6, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	jv, err := svc1.Submit("g", "PR", chaos.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := waitJob(t, svc1, jv.ID)
	crash(t, svc1)

	// Corrupt the blob on disk.
	blobs, err := filepath.Glob(filepath.Join(dir, "results", "*", "*"))
	if err != nil || len(blobs) != 1 {
		t.Fatalf("result blobs %v (%v)", blobs, err)
	}
	if err := os.WriteFile(blobs[0], []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := openDurable(t, dir, 1) // crashed below, no cleanup needed
	// Not a cache hit (the blob was garbage), but the rerun completes
	// with the identical summary and rewrites the key.
	re, err := svc2.Submit("g", "PR", chaos.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if re.CacheHit {
		t.Fatal("corrupt blob served as a cache hit")
	}
	got := waitJob(t, svc2, re.ID)
	if got.State != JobDone || fmt.Sprint(got.Result.Summary) != fmt.Sprint(want.Result.Summary) {
		t.Fatalf("rerun: %s %v, want done %v", got.State, got.Result, want.Result.Summary)
	}
	crash(t, svc2)

	svc3 := openDurable(t, dir, 1)
	t.Cleanup(func() { svc3.Shutdown(context.Background()) })
	hit, err := svc3.Submit("g", "PR", chaos.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("rewritten blob not served from disk after the next restart")
	}
}

// TestSnapshotCompactionAcrossRestarts: enough traffic to trip the
// snapshot policy must compact the journal, and recovery from
// snapshot + fresh segment equals recovery from a full journal.
func TestSnapshotCompactionAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	svc1, err := Open(Config{
		Workers: 2, BaseOptions: labOptions, DataDir: dir,
		SnapshotEvery: 8, // tiny, so the test trips it quickly
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.RegisterGraph(GraphSpec{Name: "g", Type: "rmat", Scale: 6, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var last JobView
	for i := 0; i < 6; i++ { // 6 jobs x >=3 transitions >> 8 records
		jv, err := svc1.Submit("g", "PR", chaos.Options{Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		last = waitJob(t, svc1, jv.ID)
	}
	if last.State != JobDone {
		t.Fatalf("last job %s: %s", last.ID, last.State)
	}
	// Let the background compaction(s) finish, then crash.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && svc1.persist.compacting.Load() {
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal", "snapshot.json")); err != nil {
		t.Fatalf("no snapshot written despite %d-record policy: %v", 8, err)
	}
	crash(t, svc1)

	svc2 := openDurable(t, dir, 2)
	t.Cleanup(func() { svc2.Shutdown(context.Background()) })
	if _, ok := svc2.Catalog().Get("g"); !ok {
		t.Fatal("graph lost across compacted restart")
	}
	jobs := svc2.Scheduler().List()
	if len(jobs) != 6 {
		t.Fatalf("recovered %d jobs, want 6", len(jobs))
	}
	for _, jv := range jobs {
		if jv.State != JobDone {
			t.Errorf("job %s: %s, want done", jv.ID, jv.State)
		}
	}
}

// TestLegacyDataDirRestores boots on state written by the last binary
// whose chaos.Options had no JSON tags (commit ec66aa7, PR 11): job
// records carry Go field names and integer devices ("Storage": 1). The
// fixture under testdata/legacy is that binary's output verbatim — a
// final snapshot (j1, j2), the journal records appended after it (j3,
// j4), the result blobs it stored, and the fingerprint and cache key it
// computed for each job (expected.json). Never regenerate it with
// current code: its whole value is that current code did not write it.
// (A change that adds an option appends a component to every fingerprint
// and so orphans every stored result; this test failing is that alarm.)
func TestLegacyDataDirRestores(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(filepath.Join(dir, "results"), os.DirFS("testdata/legacy/results")); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	snapshot, err := os.ReadFile("testdata/legacy/snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snapshot, []byte(`"Storage":1,"Network":1`)) {
		t.Fatal("fixture snapshot lost its integer-device record")
	}
	if err := os.WriteFile(filepath.Join(walDir, "snapshot.json"), snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	wal, _, err := durable.OpenWAL(walDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile("testdata/legacy/journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		var rec durable.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if err := wal.Append(rec.Kind, rec.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	var expected []struct {
		ID, Algorithm, State, Fingerprint, CacheKey string
	}
	data, err := os.ReadFile("testdata/legacy/expected.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &expected); err != nil {
		t.Fatal(err)
	}

	svc := openDurable(t, dir, 1)
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	for _, want := range expected {
		svc.scheduler.mu.Lock()
		j := svc.scheduler.jobs[want.ID]
		svc.scheduler.mu.Unlock()
		if j == nil {
			t.Errorf("%s: not restored", want.ID)
			continue
		}
		if got := j.Options.Fingerprint(); got != want.Fingerprint {
			t.Errorf("%s: fingerprint\n got %s\nwant %s", want.ID, got, want.Fingerprint)
		}
		if got := cacheKey(j.Graph, j.Algorithm, j.Options); got != want.CacheKey {
			t.Errorf("%s: cache key %s, want %s", want.ID, got, want.CacheKey)
		}
		// The stored blob still answers for the job: its result hydrates.
		jv, _ := svc.scheduler.Get(want.ID)
		if string(jv.State) != want.State || jv.Algorithm != want.Algorithm || jv.Result == nil {
			t.Errorf("%s: restored as %s %s result=%v, want %s %s with its stored result",
				want.ID, jv.Algorithm, jv.State, jv.Result, want.Algorithm, want.State)
		}
	}
	// And for a fresh, identical submission: a cache hit, not a rerun.
	jv, err := svc.Submit("rmat6", "BFS", chaos.Options{
		Machines: 2, Storage: chaos.HDD, Network: chaos.Net1GigE, CheckpointEvery: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !jv.CacheHit || jv.State != JobDone {
		t.Errorf("resubmission of legacy j2: cacheHit=%v state=%s, want a cache hit", jv.CacheHit, jv.State)
	}
}

// TestRestoredSpecOutOfBoundsFailsItsJob opens a data dir whose snapshot
// names an rmat graph at scale 45, past registration's [1,30], with a
// queued job on it and another on a valid graph, and starts the workers.
// The restored spec passes the same bounds check as a registration, so
// the first job fails with that reason instead of generating 2^49 edges
// on a worker, and its neighbour runs to completion.
func TestRestoredSpecOutOfBoundsFailsItsJob(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	snapshot := `{"nextJobID":2,"graphs":[` +
		`{"id":"huge","type":"rmat","scale":45,"seed":1,"vertices":35184372088832,"edges":562949953421312},` +
		`{"id":"small","type":"rmat","scale":6,"seed":1,"vertices":64,"edges":1024}],"jobs":[` +
		`{"id":"j1","graph":"huge","algorithm":"PR","options":{"machines":2,"chunkBytes":1024},"state":"queued"},` +
		`{"id":"j2","graph":"small","algorithm":"PR","options":{"machines":2,"chunkBytes":1024},"state":"queued"}]}`
	if err := os.WriteFile(filepath.Join(walDir, "snapshot.json"), []byte(snapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := openDurable(t, dir, 1)
	defer svc.Shutdown(context.Background())
	const reason = "rmat scale 45 out of range [1,30]"
	if jv := waitJob(t, svc, "j1"); jv.State != JobFailed || !strings.Contains(jv.Error, reason) {
		t.Errorf("job on the scale-45 graph ended %s (%q), want failed with %q", jv.State, jv.Error, reason)
	}
	if jv := waitJob(t, svc, "j2"); jv.State != JobDone {
		t.Errorf("job on the valid graph ended %s (%q), want done", jv.State, jv.Error)
	}
}

// TestRestoredUploadOutsideUploadsFailsItsJob: a snapshot's upload path
// is joined to the data dir only when it names a file under uploads/. A
// valid edge file beside the data dir, named by a relative path that
// leaves it, is never read: the open succeeds, the graph stays listed
// and cold, and its job fails with the reason instead of computing over
// the outside file's edges.
func TestRestoredUploadOutsideUploadsFailsItsJob(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "data")
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	outside := graph.FormatFor(1<<6, false).EncodeEdges(nil, chaos.GenerateRMAT(6, false, 5))
	if err := os.WriteFile(filepath.Join(root, "outside.edges"), outside, 0o644); err != nil {
		t.Fatal(err)
	}
	snapshot := `{"nextJobID":3,"graphs":[` +
		`{"id":"up","type":"upload","vertices":64,"edges":1024,"upload":"../outside.edges"},` +
		`{"id":"dotdot","type":"upload","vertices":64,"edges":1024,"upload":"uploads/../../outside.edges"}],"jobs":[` +
		`{"id":"j1","graph":"up","algorithm":"BFS","options":{"machines":2,"chunkBytes":1024},"state":"queued"},` +
		`{"id":"j2","graph":"dotdot","algorithm":"BFS","options":{"machines":2,"chunkBytes":1024},"state":"queued"}]}`
	if err := os.WriteFile(filepath.Join(walDir, "snapshot.json"), []byte(snapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := openDurable(t, dir, 1)
	defer svc.Shutdown(context.Background())
	for _, c := range []struct{ job, graph, path string }{{"j1", "up", "../outside.edges"}, {"j2", "dotdot", "uploads/../../outside.edges"}} {
		reason := fmt.Sprintf("upload payload %q is not a file under uploads/", c.path)
		if jv := waitJob(t, svc, c.job); jv.State != JobFailed || !strings.Contains(jv.Error, reason) {
			t.Errorf("job on graph %s ended %s (%q), want failed with %q", c.graph, jv.State, jv.Error, reason)
		}
		g, ok := svc.Catalog().Get(c.graph)
		if !ok {
			t.Fatalf("graph %s not listed", c.graph)
		}
		if g.Materialized() {
			t.Errorf("graph %s holds the outside file's edges", c.graph)
		}
	}
}

// FuzzServiceSnapshot opens a data dir whose snapshot is arbitrary bytes.
// wal/snapshot.json is plain JSON with no checksum, so a damaged or
// foreign file reaches the decoder as it is. Nothing may panic: the open
// fails with a reason, or the service answers GET /v1/graphs and
// /v1/jobs. The worker pool is not started (open, not Open), so restored
// jobs are recovered and re-enqueued but never run: materializing a
// restored graph is the scheduler's business, not the loader's
// (TestRestoredSpecOutOfBoundsFailsItsJob runs one).
func FuzzServiceSnapshot(f *testing.F) {
	legacy, err := os.ReadFile("testdata/legacy/snapshot.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"graphs":[{"id":"g7","type":"rmat","scale":64}],"jobs":[{"id":"j1","graph":"g7","algorithm":"PR","state":"queued"}]}`))
	f.Add([]byte(`{"nextJobID":-5,"graphs":[{"id":"up","type":"upload","upload":"../../x"}],"jobs":[{"id":"j9","graph":"up","state":"running","canceling":true,"spans":[{"name":"run"}]}]}`))
	f.Add([]byte(`{"jobs":[{"id":"x"},{"id":"x","state":"done"},{"id":"j2","state":"bogus","restarts":3}]}`))
	f.Fuzz(func(t *testing.T, snapshot []byte) {
		dir := t.TempDir()
		walDir := filepath.Join(dir, "wal")
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(walDir, "snapshot.json"), snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		svc, err := open(Config{Workers: 1, BaseOptions: labOptions, DataDir: dir})
		if err != nil {
			if err.Error() == "" {
				t.Fatal("the open failed without a reason")
			}
			return
		}
		defer svc.Shutdown(context.Background())
		for _, path := range []string{"/v1/graphs", "/v1/jobs"} {
			w := httptest.NewRecorder()
			svc.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			if w.Code != http.StatusOK {
				t.Fatalf("GET %s after opening %q: status %d: %s", path, snapshot, w.Code, w.Body)
			}
		}
	})
}
