package durable

import (
	"encoding/json"
	"sync"
	"testing"
)

type testRec struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

func TestWALRecoversSnapshotAndRecords(t *testing.T) {
	dir := t.TempDir()
	w, rec, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	if err := w.Append("job", testRec{"j1", "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("job", testRec{"j1", "done"}); err != nil {
		t.Fatal(err)
	}
	if n := w.AppendedSinceCompact(); n != 2 {
		t.Errorf("appended = %d, want 2", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(rec.Records) != 2 || rec.Records[0].Kind != "job" {
		t.Fatalf("recovered %+v", rec.Records)
	}
	var r testRec
	if err := json.Unmarshal(rec.Records[1].Data, &r); err != nil {
		t.Fatal(err)
	}
	if r.ID != "j1" || r.State != "done" {
		t.Errorf("last record %+v", r)
	}
	// Replayed records count toward the snapshot policy: a process that
	// boots with a fat journal should compact soon, not after another
	// full snapshot-every interval.
	if n := w2.AppendedSinceCompact(); n != 2 {
		t.Errorf("appended after recovery = %d, want 2", n)
	}
}

// TestWALTraceFromOpen: the span hook OpenWAL takes sees every kind of
// operation from the first append on, the journal's and the WAL's own.
func TestWALTraceFromOpen(t *testing.T) {
	var (
		mu  sync.Mutex
		ops = map[string]int{}
	)
	w, _, err := OpenWAL(t.TempDir(), func(sp Span) {
		mu.Lock()
		defer mu.Unlock()
		if sp.Op != "append" || sp.Bytes > 0 {
			ops[sp.Op]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append("job", testRec{"j1", "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(func() (any, error) { return testState{}, nil }); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, op := range []string{"append", "fsync", "rotate", "snapshot"} {
		if ops[op] == 0 {
			t.Errorf("no %s span reached the hook: %v", op, ops)
		}
	}
}

type testState struct {
	Jobs []testRec `json:"jobs"`
}

func TestWALCompactBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append("job", testRec{"j1", "running"}); err != nil {
			t.Fatal(err)
		}
	}
	state := testState{Jobs: []testRec{{"j1", "done"}}}
	if err := w.Compact(func() (any, error) { return state, nil }); err != nil {
		t.Fatal(err)
	}
	if n := w.AppendedSinceCompact(); n != 0 {
		t.Errorf("appended after compact = %d, want 0", n)
	}
	// One post-compaction record lands in the fresh segment.
	if err := w.Append("job", testRec{"j2", "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var got testState
	if rec.Snapshot == nil {
		t.Fatal("no snapshot recovered")
	}
	if err := json.Unmarshal(rec.Snapshot, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != 1 || got.Jobs[0].State != "done" {
		t.Errorf("snapshot %+v", got)
	}
	if len(rec.Records) != 1 {
		t.Fatalf("replayed %d records after compaction, want 1", len(rec.Records))
	}
}

// TestWALStats: the counter surface behind /metrics — lifetime records,
// fsyncs actually issued, snapshot count — tracks appends, Sync and
// Compact, and restarts from the replayed record count.
func TestWALStats(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append("job", testRec{"j1", "running"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Records != 5 || st.SinceCompact != 5 {
		t.Errorf("stats after 5 appends: %+v", st)
	}
	if st.Fsyncs < 1 {
		t.Errorf("no fsync counted after Sync: %+v", st)
	}
	if st.Snapshots != 0 {
		t.Errorf("snapshots before any compaction: %+v", st)
	}
	if err := w.Compact(func() (any, error) { return testState{}, nil }); err != nil {
		t.Fatal(err)
	}
	st = w.Stats()
	if st.Snapshots != 1 || st.SinceCompact != 0 || st.Records != 5 {
		t.Errorf("stats after compaction: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A restart keeps replayed records in the lifetime count but resets
	// the per-process fsync and snapshot counters.
	w2, _, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if st := w2.Stats(); st.Records != 0 || st.Snapshots != 0 {
		t.Errorf("stats after clean restart (snapshot subsumed the records): %+v", st)
	}
}
