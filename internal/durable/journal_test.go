package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func openCollect(t *testing.T, dir string) (*Journal, [][]byte, int) {
	t.Helper()
	var got [][]byte
	j, torn, err := OpenJournal(dir, 0, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return j, got, torn
}

func TestJournalAppendReplay(t *testing.T) {
	dir := t.TempDir()
	j, got, torn := openCollect(t, dir)
	if len(got) != 0 || torn != 0 {
		t.Fatalf("fresh journal replayed %d records, torn %d", len(got), torn)
	}
	want := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":2}`), []byte(`{"c":3}`)}
	for _, p := range want {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, got, torn = openCollect(t, dir)
	if torn != 0 {
		t.Errorf("clean journal reported %d torn tails", torn)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Errorf("record %d: %s, want %s", i, got[i], want[i])
		}
	}
}

// TestJournalTornTail simulates a crash mid-append: the final frame is
// cut short. Replay must keep every complete record, truncate the torn
// tail, and leave the journal appendable on a record boundary.
func TestJournalTornTail(t *testing.T) {
	for name, mutilate := range map[string]func([]byte) []byte{
		// The second record's frame is 8 header + 10 payload bytes.
		"half header":  func(b []byte) []byte { return b[:len(b)-14] },
		"half payload": func(b []byte) []byte { return b[:len(b)-3] },
		"bad checksum": func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			j, _, _ := openCollect(t, dir)
			if err := j.Append([]byte(`{"keep":1}`)); err != nil {
				t.Fatal(err)
			}
			if err := j.Append([]byte(`{"torn":2}`)); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(dir, segmentName(1))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mutilate(data), 0o644); err != nil {
				t.Fatal(err)
			}

			j2, got, torn := openCollect(t, dir)
			if torn != 1 {
				t.Errorf("torn = %d, want 1", torn)
			}
			if len(got) != 1 || string(got[0]) != `{"keep":1}` {
				t.Fatalf("survivors %q, want just the first record", got)
			}
			// The journal keeps working after truncation.
			if err := j2.Append([]byte(`{"after":3}`)); err != nil {
				t.Fatal(err)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			_, got, torn = openCollect(t, dir)
			if torn != 0 || len(got) != 2 || string(got[1]) != `{"after":3}` {
				t.Fatalf("after re-append: torn %d records %q", torn, got)
			}
		})
	}
}

// TestJournalZeroFilledTail: a crash can leave zero-filled blocks after
// the last record (the file's new size reached the disk, its data did
// not). A zero header checksums clean, since CRC-32C of nothing is 0,
// so it must read as a torn tail, not as an empty record the WAL then
// fails to decode.
func TestJournalZeroFilledTail(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openCollect(t, dir)
	if err := j.Append([]byte(`{"keep":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(nil); err == nil {
		t.Error("Append accepted an empty record")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boundary := len(data)
	if err := os.WriteFile(path, append(data, make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, got, torn := openCollect(t, dir)
	if torn != 1 {
		t.Errorf("torn = %d, want 1", torn)
	}
	if len(got) != 1 || string(got[0]) != `{"keep":1}` {
		t.Fatalf("survivors %q, want just the record", got)
	}
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Size() != int64(boundary) {
		t.Fatalf("segment holds %d bytes, want %d (truncated to the record boundary)", fi.Size(), boundary)
	}

	// Sealed, the same segment is corruption: it was fsynced whole
	// before rotation, so the open fails instead of truncating.
	if _, err := j2.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(dir, 0, func([]byte) error { return nil }); err == nil {
		t.Fatal("open accepted a sealed segment with a zero-filled tail")
	}
}

// FuzzJournalReplay opens arbitrary bytes as the journal's only segment.
// The open never panics. When it succeeds, every replayed record is
// non-empty, at most one torn tail was cut, and framing the records
// again gives the segment's bytes after the open: replay drops nothing
// but the tail it truncated. When it fails, the segment is untouched.
func FuzzJournalReplay(f *testing.F) {
	frame := func(dst, payload []byte) []byte {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
		dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
		return append(dst, payload...)
	}
	rec := frame(nil, []byte(`{"keep":1}`))
	f.Add([]byte{})
	f.Add(rec)
	f.Add(append(append([]byte(nil), rec...), make([]byte, 4096)...)) // zero-filled tail
	f.Add(frame(append(append([]byte(nil), rec...), 0xff), []byte(`{"next":2}`)))
	f.Add(rec[:len(rec)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		j, torn, err := OpenJournal(dir, 0, func(p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		})
		if err == nil {
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(after, data) {
				t.Fatalf("failed open (%v) modified the segment", err)
			}
			return
		}
		if torn > 1 {
			t.Fatalf("torn = %d from one segment", torn)
		}
		var want []byte
		for i, p := range got {
			if len(p) == 0 {
				t.Fatalf("record %d replayed empty", i)
			}
			want = frame(want, p)
		}
		if !bytes.Equal(after, want) {
			t.Fatalf("segment holds %d bytes after the open, its %d records frame to %d", len(after), len(got), len(want))
		}
	})
}

// TestJournalRefusesMidFileCorruption: a torn write can only damage the
// final frame. When a broken frame is followed by a valid one — proof
// of mid-file corruption — the open must fail instead of truncating
// away acknowledged records.
func TestJournalRefusesMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openCollect(t, dir)
	if err := j.Append([]byte(`{"first":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte(`{"second":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderBytes] ^= 0xff // corrupt the FIRST record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(dir, 0, func([]byte) error { return nil }); err == nil {
		t.Fatal("open must refuse to truncate past a valid frame")
	}
	// The file is untouched: fixing nothing and re-reading shows the
	// second record still physically present.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data) {
		t.Fatalf("segment was modified: %d bytes, want %d", len(after), len(data))
	}
}

// TestJournalCorruptLengthStopsReplay: a frame whose length field is
// garbage (larger than the file) must stop the scan instead of reading
// past the buffer.
func TestJournalCorruptLength(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openCollect(t, dir)
	if err := j.Append([]byte(`{"ok":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30) // absurd length
	f.Write(hdr[:])
	f.Close()

	_, got, torn := openCollect(t, dir)
	if torn != 1 || len(got) != 1 {
		t.Fatalf("torn %d, %d records; want 1 and 1", torn, len(got))
	}
}

func TestJournalRotateAndDrop(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openCollect(t, dir)
	if err := j.Append([]byte(`{"old":1}`)); err != nil {
		t.Fatal(err)
	}
	sealed, err := j.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte(`{"new":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.DropThrough(sealed); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, _ := openCollect(t, dir)
	if len(got) != 1 || string(got[0]) != `{"new":2}` {
		t.Fatalf("after drop: %q, want only the new-segment record", got)
	}
}

// TestJournalRotateKeepsBothSegments: before DropThrough, records from
// the sealed and the live segment both replay, in order.
func TestJournalRotateKeepsBothSegments(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openCollect(t, dir)
	if err := j.Append([]byte(`{"old":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte(`{"new":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, _ := openCollect(t, dir)
	if len(got) != 2 || string(got[0]) != `{"old":1}` || string(got[1]) != `{"new":2}` {
		t.Fatalf("replay across segments: %q", got)
	}
}

// TestJournalDropRefusesActiveSegment guards the compaction invariant:
// the live segment must never be deleted.
func TestJournalDropRefusesActiveSegment(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openCollect(t, dir)
	defer j.Close()
	if err := j.DropThrough(1); err == nil {
		t.Fatal("dropping the active segment should fail")
	}
}
