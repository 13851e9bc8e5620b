package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Journal is an append-only log of framed records split across numbered
// segment files (journal-<seq>.wal). Each record is framed as
//
//	[4B little-endian payload length][4B CRC-32C of payload][payload]
//
// Replay scans segments in sequence order and stops at the first frame
// that is empty, incomplete or fails its checksum — a torn write from a
// crash mid-append — truncating the segment there so the file ends on a
// record boundary again. Appends go to the newest segment; Rotate seals
// it and starts the next one (the compaction hook, see WAL.Compact).
//
// Durability is batched: Append returns after the buffered write, and a
// background flusher fsyncs dirty segments every SyncInterval. Sync
// forces an immediate fsync for records that must not wait.
type Journal struct {
	dir      string
	interval time.Duration

	mu    sync.Mutex
	f     *os.File // current segment, positioned at its end
	seq   int      // current segment number
	dirty bool     // written since the last fsync
	syncs int      // fsyncs actually issued (batching effectiveness, /metrics)
	err   error    // sticky write/sync error: the journal is dead once a write is lost
	hook  SpanHook // observational span reporter, nil when tracing is off
	stop  chan struct{}
	done  chan struct{}

	closeOnce sync.Once
	closeErr  error
}

const (
	frameHeaderBytes = 8
	// maxRecordBytes rejects absurd frames on both sides: an append this
	// large is a bug, and a replayed length this large is corruption.
	maxRecordBytes = 1 << 28

	segmentPrefix = "journal-"
	segmentSuffix = ".wal"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// DefaultSyncInterval is the fsync batching window: the longest an
// acknowledged Append can stay non-durable.
const DefaultSyncInterval = 5 * time.Millisecond

func segmentName(seq int) string {
	return fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix)
}

func parseSegmentName(name string) (int, bool) {
	if len(name) != len(segmentPrefix)+8+len(segmentSuffix) ||
		name[:len(segmentPrefix)] != segmentPrefix ||
		name[len(name)-len(segmentSuffix):] != segmentSuffix {
		return 0, false
	}
	seq := 0
	for _, c := range name[len(segmentPrefix) : len(segmentPrefix)+8] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + int(c-'0')
	}
	return seq, true
}

// OpenJournal opens (creating if necessary) the journal in dir, replays
// every surviving record into replay in append order, and leaves the
// journal ready for appends at the end of the newest segment. A torn
// tail is truncated and reported through torn (recovery proceeds — a
// torn final record is the expected crash signature, not an error).
func OpenJournal(dir string, interval time.Duration, replay func(payload []byte) error) (j *Journal, torn int, err error) {
	if interval <= 0 {
		interval = DefaultSyncInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, 0, err
	}
	if len(seqs) == 0 {
		seqs = []int{1}
	}
	for i, seq := range seqs {
		last := i == len(seqs)-1
		t, err := replaySegment(filepath.Join(dir, segmentName(seq)), last, replay)
		if err != nil {
			return nil, 0, fmt.Errorf("durable: replaying %s: %w", segmentName(seq), err)
		}
		torn += t
	}
	cur := seqs[len(seqs)-1]
	f, err := os.OpenFile(filepath.Join(dir, segmentName(cur)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := syncDir(dir); err != nil { // the segment file itself must survive a crash
		f.Close()
		return nil, 0, err
	}
	j = &Journal{
		dir:      dir,
		interval: interval,
		f:        f,
		seq:      cur,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go j.flusher()
	return j, torn, nil
}

// listSegments returns the segment sequence numbers present in dir,
// ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// replaySegment feeds every complete record of one segment file to
// replay. When the segment is the newest one, an incomplete or
// checksum-failing tail is truncated away (torn write); a sealed
// segment must scan clean and fails the open otherwise.
//
// Truncation is guarded: a crash mid-append can only ever damage the
// FINAL frame of the ACTIVE segment, so if any valid frame exists after
// the broken one — or the break is in a sealed segment at all — this is
// mid-file corruption (bit rot, partial-sector damage), and truncating
// or skipping would silently destroy acknowledged records; the open
// fails loudly instead and leaves the file for the operator.
func replaySegment(path string, truncateTorn bool, replay func([]byte) error) (torn int, err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, err
	}
	off := 0
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return 0, nil // clean end on a record boundary
		}
		if len(rest) < frameHeaderBytes {
			break // torn header
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n == 0 || n > maxRecordBytes || len(rest) < frameHeaderBytes+int(n) {
			// A zero header checksums clean (CRC-32C of nothing is 0), but
			// Append writes no empty record: n == 0 is a zero-filled tail.
			break // torn, zero-filled or corrupt payload length
		}
		payload := rest[frameHeaderBytes : frameHeaderBytes+int(n)]
		if crc32.Checksum(payload, crcTable) != sum {
			break // torn payload (crash mid-write) or bit rot
		}
		if err := replay(payload); err != nil {
			return 0, err
		}
		off += frameHeaderBytes + int(n)
	}
	if !truncateTorn {
		// Sealed segments were fsynced before rotation and any torn
		// tail was truncated when they were still active, so they must
		// scan to a clean end: a broken frame here is corruption, and
		// skipping the rest would silently drop acknowledged records.
		return 0, fmt.Errorf("durable: %s: sealed journal segment has a broken frame at offset %d — corruption, refusing to drop the records after it", filepath.Base(path), off)
	}
	if at, found := nextValidFrame(data, off+1); found {
		return 0, fmt.Errorf("durable: %s: broken frame at offset %d but a valid frame follows at %d — mid-file corruption, refusing to truncate acknowledged records", filepath.Base(path), off, at)
	}
	if err := f.Truncate(int64(off)); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return 1, nil
}

// nextValidFrame scans forward from offset `from` for a complete frame
// with a matching checksum — proof that the break before it is not a
// torn tail. A torn append leaves at most one partial frame, so the
// scan window is one max-size frame past the break.
func nextValidFrame(data []byte, from int) (int, bool) {
	limit := len(data) - frameHeaderBytes
	if max := from + maxRecordBytes + frameHeaderBytes; limit > max {
		limit = max
	}
	for o := from; o <= limit; o++ {
		n := binary.LittleEndian.Uint32(data[o:])
		if n == 0 || n > maxRecordBytes || o+frameHeaderBytes+int(n) > len(data) {
			continue
		}
		sum := binary.LittleEndian.Uint32(data[o+4:])
		if crc32.Checksum(data[o+frameHeaderBytes:o+frameHeaderBytes+int(n)], crcTable) == sum {
			return o, true
		}
	}
	return 0, false
}

// Append journals one non-empty payload. It returns once the frame is
// written to the OS; the flusher makes it durable within the interval.
func (j *Journal) Append(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("durable: refusing an empty journal record")
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("durable: record of %d bytes exceeds the %d-byte journal limit", len(payload), maxRecordBytes)
	}
	frame := make([]byte, frameHeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeaderBytes:], payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	start := time.Now()
	if _, err := j.f.Write(frame); err != nil {
		j.err = fmt.Errorf("durable: journal append: %w", err)
		return j.err
	}
	j.dirty = true
	if j.hook != nil {
		j.hook(Span{Op: "append", Start: start, Dur: time.Since(start), Bytes: len(payload)})
	}
	return nil
}

// Sync blocks until every appended record is fsynced.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.err != nil {
		return j.err
	}
	if !j.dirty {
		return nil
	}
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("durable: journal sync: %w", err)
		return j.err
	}
	j.dirty = false
	j.syncs++
	if j.hook != nil {
		j.hook(Span{Op: "fsync", Start: start, Dur: time.Since(start)})
	}
	return nil
}

// Syncs returns how many fsyncs the journal has issued — appends per
// sync is the batching win /metrics reports.
func (j *Journal) Syncs() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncs
}

// flusher is the fsync batcher: it amortizes one fsync over every
// record appended in the interval.
func (j *Journal) flusher() {
	defer close(j.done)
	ticker := time.NewTicker(j.interval)
	defer ticker.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-ticker.C:
			j.Sync() // sticky error surfaces on the next Append/Sync
		}
	}
}

// Rotate seals the current segment (fsyncing its tail) and directs
// subsequent appends to a fresh one. It returns the sealed segment's
// sequence number; DropThrough(sealed) discards it and its predecessors
// once a snapshot has made them redundant.
func (j *Journal) Rotate() (sealed int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	start := time.Now()
	if err := j.syncLocked(); err != nil {
		return 0, err
	}
	next, err := os.OpenFile(filepath.Join(j.dir, segmentName(j.seq+1)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("durable: rotating journal: %w", err)
	}
	if err := syncDir(j.dir); err != nil {
		next.Close()
		return 0, err
	}
	j.f.Close()
	sealed = j.seq
	j.f = next
	j.seq++
	if j.hook != nil {
		j.hook(Span{Op: "rotate", Start: start, Dur: time.Since(start)})
	}
	return sealed, nil
}

// DropThrough removes every sealed segment with sequence number <= seq.
// Called after a snapshot has captured the state those segments rebuilt.
func (j *Journal) DropThrough(seq int) error {
	j.mu.Lock()
	cur := j.seq
	j.mu.Unlock()
	if seq >= cur {
		return fmt.Errorf("durable: refusing to drop the active journal segment %d", cur)
	}
	seqs, err := listSegments(j.dir)
	if err != nil {
		return err
	}
	for _, s := range seqs {
		if s <= seq {
			if err := os.Remove(filepath.Join(j.dir, segmentName(s))); err != nil {
				return err
			}
		}
	}
	return syncDir(j.dir)
}

// Close stops the flusher and fsyncs the tail. Idempotent: repeated
// closes return the first close's result.
func (j *Journal) Close() error {
	j.closeOnce.Do(func() {
		close(j.stop)
		<-j.done
		j.mu.Lock()
		defer j.mu.Unlock()
		j.closeErr = j.syncLocked()
		if cerr := j.f.Close(); j.closeErr == nil && cerr != nil {
			j.closeErr = cerr
		}
		if j.err == nil {
			j.err = fmt.Errorf("durable: journal closed")
		}
	})
	return j.closeErr
}

// syncDir fsyncs a directory so renames and file creations inside it
// survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
