package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"

	"chaos"
	"chaos/internal/durable"
)

var updateJournalGolden = flag.Bool("update", false, "rewrite testdata/journal_form.golden from this run")

// journalTimes matches every wall-clock field a job record carries: the
// lifecycle times and each span's start and end.
var journalTimes = regexp.MustCompile(`"(enqueuedAt|startedAt|finishedAt)":"[^"]*"|"(startNs|endNs)":-?[0-9]+`)

// zeroJournalTimes blanks a record's wall-clock fields in place, keeping
// every byte around them: the key order, which fields are present, ids,
// details and counters.
func zeroJournalTimes(raw []byte) []byte {
	return journalTimes.ReplaceAllFunc(raw, func(m []byte) []byte {
		key, _, _ := bytes.Cut(m, []byte(":"))
		if bytes.HasSuffix(key, []byte(`Ns"`)) {
			return append(key, ":0"...)
		}
		return append(key, `:"0"`...)
	})
}

// TestJournalFormGolden pins the journaled form of every job transition.
// It drives a scripted workload through a durable Service: a job that runs
// and checkpoints, a cache hit, a failure, a queued cancel, a running
// cancel (accepted, then honoured), a shutdown cancel, and a job left
// running by a crash. A reopen then meets that job and four seeded
// records, one per restart outcome. Each job's records, read back from
// the journal with their times zeroed, must match the golden byte for
// byte. Run with -update to rewrite it.
func TestJournalFormGolden(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, BaseOptions: labOptions, DataDir: dir, SnapshotEvery: 1 << 20}
	svc, err := open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterGraph(GraphSpec{Name: "g1", Type: "rmat", Scale: 6, Weighted: true, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// j1 runs for real (its result blob is the checkpoint span), j3
	// fails, every other job blocks until it is canceled.
	svc.scheduler.run = func(ctx context.Context, j *Job) (*chaos.Result, *chaos.Report, error) {
		switch j.ID {
		case "j1":
			return svc.execute(ctx, j)
		case "j3":
			return nil, nil, errors.New("boom")
		}
		<-ctx.Done()
		return nil, nil, ctx.Err()
	}
	svc.scheduler.start()

	submit := func(alg string, seed int64) string {
		t.Helper()
		jv, err := svc.Submit("g1", alg, chaos.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return jv.ID
	}
	waitState := func(id string, want JobState) {
		t.Helper()
		waitFor(t, id+" "+string(want), func() bool {
			jv, _ := svc.scheduler.Get(id)
			return jv.State == want
		})
	}
	waitState(submit("PR", 7), JobDone)     // j1
	waitState(submit("PR", 7), JobDone)     // j2: a cache hit
	waitState(submit("WCC", 7), JobFailed)  // j3
	waitState(submit("BFS", 7), JobRunning) // j4
	j5 := submit("SSSP", 7)
	if _, err := svc.scheduler.Cancel(j5); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.scheduler.Cancel("j4"); err != nil {
		t.Fatal(err)
	}
	waitState("j4", JobCanceled)
	waitState(submit("BFS", 8), JobRunning) // j6: still running at the crash
	submit("SSSP", 8)                       // j7: canceled by the shutdown
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.scheduler.Shutdown(expired); err == nil {
		t.Fatal("shutdown drained a job that cannot finish")
	}
	crash(t, svc)
	// Let the crashed instance's worker go: its journal is closed, so
	// nothing it does from here reaches the data dir.
	if _, err := svc.scheduler.Cancel("j6"); err != nil {
		t.Fatal(err)
	}
	svc.scheduler.wg.Wait()

	// Seed one record per restart outcome beside j6, which is requeued.
	w, _, err := durable.OpenWAL(filepath.Join(dir, "wal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	opts := mergeOptions(labOptions, chaos.Options{Seed: 9})
	for _, r := range []jobRecord{
		{ID: "j8", Graph: "g1", Algorithm: "PR", Options: opts, State: JobRunning, Canceling: true, EnqueuedAt: at, StartedAt: at},
		{ID: "j9", Graph: "ghost", Algorithm: "PR", Options: opts, State: JobQueued, EnqueuedAt: at},
		{ID: "j10", Graph: "g1", Algorithm: "PR", Options: opts, State: JobRunning, Restarts: 3, EnqueuedAt: at, StartedAt: at},
		{ID: "j11", Graph: "g1", Algorithm: "BFS", Options: opts, State: JobQueued, Restarts: 1, EnqueuedAt: at},
	} {
		if err := w.Append(recJob, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// The reopen restores without running; its shutdown cancels the two
	// requeued jobs.
	svc2, err := open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc2.scheduler.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	crash(t, svc2)

	got := journalJobForm(t, dir)
	path := filepath.Join("testdata", "journal_form.golden")
	if *updateJournalGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journaled job records differ from %s\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// journalJobForm reads a data dir's journal back and lists each job's
// records in journal order, one JSON object a line with times zeroed,
// jobs in id order under a "# id" header.
func journalJobForm(t *testing.T, dir string) []byte {
	t.Helper()
	w, rec, err := durable.OpenWAL(filepath.Join(dir, "wal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if rec.Snapshot != nil {
		t.Fatal("the journal compacted; the golden needs every record")
	}
	byJob := map[string][][]byte{}
	for _, r := range rec.Records {
		if r.Kind != recJob {
			continue
		}
		var id struct{ ID string }
		if err := json.Unmarshal(r.Data, &id); err != nil {
			t.Fatal(err)
		}
		byJob[id.ID] = append(byJob[id.ID], zeroJournalTimes(r.Data))
	}
	ids := make([]string, 0, len(byJob))
	for id := range byJob {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		x, _ := jobSeq(ids[a])
		y, _ := jobSeq(ids[b])
		return x < y
	})
	var out bytes.Buffer
	for _, id := range ids {
		fmt.Fprintf(&out, "# %s\n", id)
		for _, line := range byJob[id] {
			out.Write(line)
			out.WriteByte('\n')
		}
	}
	return out.Bytes()
}
