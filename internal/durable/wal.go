package durable

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// WAL combines the journal and the snapshot into one recovery unit: on
// open it hands back the latest snapshot plus every journal record that
// survives checksumming, and while running it appends records and
// periodically compacts them into a fresh snapshot.
type WAL struct {
	dir     string
	journal *Journal

	mu        sync.Mutex
	appended  int        // records since the last compaction (snapshot policy input)
	total     int        // records appended over the WAL's lifetime (this process)
	snapshots int        // successful compactions (this process)
	hook      SpanHook   // observational span reporter, fixed at open (nil: tracing off)
	compactMu sync.Mutex // serializes Compact callers
}

// WALStats snapshots the WAL's counters for /metrics and /v1/stats.
// All counts are per-process (since this WAL was opened), matching the
// Prometheus counter convention of resetting on restart.
type WALStats struct {
	// Records counts journal records appended since open (replayed
	// records from a previous process count once, at open).
	Records int `json:"records"`
	// SinceCompact counts records appended since the last compacting
	// snapshot — the snapshot-every policy input.
	SinceCompact int `json:"sinceCompact"`
	// Fsyncs counts fsyncs the journal actually issued; Records much
	// greater than Fsyncs is group commit working.
	Fsyncs int `json:"fsyncs"`
	// Snapshots counts successful compacting snapshots since open.
	Snapshots int `json:"snapshots"`
}

// Recovered is what a WAL found on disk at open time.
type Recovered struct {
	// Snapshot is the raw snapshot JSON, nil when none was taken.
	Snapshot json.RawMessage
	// Records are the journal records appended after (or, around a
	// compaction crash window, slightly before) the snapshot, in append
	// order. Replay must treat them as idempotent upserts.
	Records []Record
	// Torn counts journal tails truncated at a broken frame — the
	// normal signature of a crash mid-append, surfaced for logging.
	Torn int
}

// OpenWAL opens (creating if necessary) the durable state under dir and
// recovers whatever a previous process left. trace, when not nil,
// observes the journal's append/fsync/rotate spans and the WAL's own
// snapshot spans (see Compact) from the first append on.
func OpenWAL(dir string, trace SpanHook) (*WAL, *Recovered, error) {
	rec := &Recovered{}
	var raw json.RawMessage
	if found, err := LoadSnapshot(dir, &raw); err != nil {
		return nil, nil, err
	} else if found {
		rec.Snapshot = raw
	}
	j, torn, err := OpenJournal(dir, 0, func(payload []byte) error {
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			// The frame passed its checksum, so this is a schema bug or
			// foreign file, not a torn write; refuse to guess.
			return fmt.Errorf("durable: undecodable journal record: %w", err)
		}
		rec.Records = append(rec.Records, r)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rec.Torn = torn
	j.mu.Lock() // the flusher already runs
	j.hook = trace
	j.mu.Unlock()
	w := &WAL{dir: dir, journal: j, appended: len(rec.Records), total: len(rec.Records), hook: trace}
	return w, rec, nil
}

// Append journals one record. It returns once the record is in the OS
// write buffer; durability follows within the sync interval, or
// immediately after a Sync.
func (w *WAL) Append(kind string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("durable: encoding %s record: %w", kind, err)
	}
	payload, err := json.Marshal(Record{Kind: kind, Data: data})
	if err != nil {
		return err
	}
	if err := w.journal.Append(payload); err != nil {
		return err
	}
	w.mu.Lock()
	w.appended++
	w.total++
	w.mu.Unlock()
	return nil
}

// Sync blocks until every appended record is fsynced.
func (w *WAL) Sync() error { return w.journal.Sync() }

// AppendedSinceCompact returns how many records the journal has
// accumulated since the last compaction — the input to the caller's
// snapshot-every policy.
func (w *WAL) AppendedSinceCompact() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// Stats snapshots the WAL's counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		Records:      w.total,
		SinceCompact: w.appended,
		Fsyncs:       w.journal.Syncs(),
		Snapshots:    w.snapshots,
	}
}

// Compact bounds replay time: it rotates the journal onto a fresh
// segment, captures the caller's full state, writes it as the new
// snapshot, and only then drops the sealed segments the snapshot made
// redundant.
//
// The rotate-then-capture order is what makes this safe without
// freezing the service: every record in a sealed segment predates the
// capture, so the snapshot subsumes it and the segment can be deleted;
// records appended between the rotation and the capture live in the
// surviving segment and may ALSO be reflected in the snapshot, which is
// why replay must be idempotent (Recovered.Records). A crash anywhere
// in between leaves a superset of the needed records — never a gap.
//
// capture runs without any WAL lock held, so it may take the same locks
// appenders hold.
func (w *WAL) Compact(capture func() (any, error)) error {
	w.compactMu.Lock()
	defer w.compactMu.Unlock()
	sealed, err := w.journal.Rotate()
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.appended = 0 // the new segment starts empty
	w.mu.Unlock()
	start := time.Now()
	state, err := capture()
	if err != nil {
		return fmt.Errorf("durable: capturing snapshot state: %w", err)
	}
	if err := SaveSnapshot(w.dir, state); err != nil {
		return err
	}
	if err := w.journal.DropThrough(sealed); err != nil {
		return err
	}
	w.mu.Lock()
	w.snapshots++
	w.mu.Unlock()
	if w.hook != nil {
		w.hook(Span{Op: "snapshot", Start: start, Dur: time.Since(start)})
	}
	return nil
}

// Close fsyncs and closes the journal. The caller should Compact first
// if it wants a fresh snapshot on disk (replay works either way).
func (w *WAL) Close() error { return w.journal.Close() }
