// Package storage implements the Chaos storage engine (§6): per-partition
// vertex, edge and update sets maintained as chunks, spread uniformly
// randomly across the storage engines of the cluster, and served with
// per-iteration exactly-once consumption tracking.
//
// The Store type holds one machine's share of the graph data for the
// simulation. It is pure data-plane: request timing (device bandwidth,
// network hops) is modeled by the cluster layer, which charges the
// simulated device before touching the store, so the Store holds every
// chunk by reference and never copies or persists bytes.
//
// A Backend is the byte-level persistence layer of the native plane: the
// spill transport writes update chunks through a file backend (one file
// per stream, as in §7).
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrUnknownStream is returned (wrapped) by read-only backend operations
// on a stream that was never written. All backends agree on it, so callers
// can distinguish "no such set yet" from I/O failures with errors.Is.
var ErrUnknownStream = errors.New("storage: unknown stream")

// Backend is byte-level persistence. Streams are named append-only byte
// sequences, one per spilled (source, destination) bucket, matching the
// paper's file-per-set layout on ext4.
//
// Who owns a chunk's bytes (DESIGN.md has the long form):
//
//   - Write does not retain data. The stored bytes are the backend's own
//     copy, so the caller may reuse or overwrite its buffer as soon as
//     Write returns (SpillTransport writes a record slab and at once
//     returns it to its arena, where the next Put may refill it).
//   - Read results are read-only. A backend may hand out a view of its
//     own storage instead of a copy; a caller that wants to modify the
//     bytes copies them first. A result stays valid and unchanged for as
//     long as the caller holds it, across later Writes, Truncate and
//     Close, so a reader (a decode task on a worker goroutine) needs no
//     agreement with whoever truncates the stream.
type Backend interface {
	// Write appends data to the named stream and returns the offset at
	// which it was stored.
	Write(stream string, data []byte) (int64, error)
	// Read returns length bytes at offset from the named stream.
	Read(stream string, offset int64, length int) ([]byte, error)
	// ReadInto fills dst with the len(dst) bytes at offset of the named
	// stream. dst is the caller's, before and after: the way to read a
	// chunk back without allocating (SpillTransport's replay).
	ReadInto(stream string, offset int64, dst []byte) error
	// Truncate discards the named stream's contents.
	Truncate(stream string) error
	// Size returns the current length of the named stream.
	Size(stream string) (int64, error)
	// Close releases all resources.
	Close() error
}

// MemBackend keeps streams in memory: the in-memory Backend the contract
// tests and the spill transport's tests run against.
//
// A stream is a list of segments, one per Write, each an exact-size copy
// that is never moved, grown or written again. That is the chunk
// granularity of the data plane (§6.3: a storage engine serves whole
// chunks): storing a chunk costs one allocation and one copy whatever
// the stream already holds, and reading it back costs neither.
type MemBackend struct {
	mu      sync.Mutex
	streams map[string]*memStream
}

// memStream is one stream's segments in offset order.
type memStream struct {
	segs []memSeg
	size int64
}

// memSeg is the bytes of one Write and the stream offset they start at.
type memSeg struct {
	off  int64
	data []byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{streams: make(map[string]*memStream)}
}

// Write appends one segment holding a copy of data.
func (b *MemBackend) Write(stream string, data []byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.streams[stream]
	if s == nil {
		s = &memStream{}
		b.streams[stream] = s
	}
	off := s.size
	if len(data) > 0 {
		s.segs = append(s.segs, memSeg{off: off, data: bytes.Clone(data)})
		s.size += int64(len(data))
	}
	return off, nil
}

// Read returns the requested byte range. A range inside one segment —
// every chunk the Store reads back — is returned as a view of that
// segment with its capacity clipped to its length, so not even an append
// can reach the neighbouring bytes; a range spanning segments is
// assembled into a fresh slice.
func (b *MemBackend) Read(stream string, offset int64, length int) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	segs, err := b.segments(stream, offset, length)
	if err != nil || length == 0 {
		return nil, err
	}
	if lo := offset - segs[0].off; lo+int64(length) <= int64(len(segs[0].data)) {
		return segs[0].data[lo : lo+int64(length) : lo+int64(length)], nil
	}
	out := make([]byte, length)
	copySegments(out, segs, offset)
	return out, nil
}

// ReadInto copies the requested byte range into dst.
func (b *MemBackend) ReadInto(stream string, offset int64, dst []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	segs, err := b.segments(stream, offset, len(dst))
	if err == nil {
		copySegments(dst, segs, offset)
	}
	return err
}

// segments checks the range [offset, offset+length) against the stream
// and returns its segments from the one holding offset on.
func (b *MemBackend) segments(stream string, offset int64, length int) ([]memSeg, error) {
	s, ok := b.streams[stream]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownStream, stream)
	}
	end := offset + int64(length)
	if offset < 0 || length < 0 || end > s.size {
		return nil, fmt.Errorf("storage: read [%d,%d) beyond stream %q of %d bytes", offset, end, stream, s.size)
	}
	if length == 0 {
		return nil, nil
	}
	// The segment holding offset: the last one starting at or before it.
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].off > offset }) - 1
	return s.segs[i:], nil
}

// copySegments fills dst with the stream bytes from offset on; segs
// starts at the segment holding offset.
func copySegments(dst []byte, segs []memSeg, offset int64) {
	for n := 0; n < len(dst); segs = segs[1:] {
		n += copy(dst[n:], segs[0].data[max(offset-segs[0].off, 0):])
	}
}

// Truncate discards the stream's contents by dropping its segments; views
// already handed out keep theirs alive and intact. The stream stays
// registered (empty), mirroring a file truncated to zero length;
// truncating a stream that was never written is a no-op.
func (b *MemBackend) Truncate(stream string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s, ok := b.streams[stream]; ok {
		*s = memStream{}
	}
	return nil
}

// Size returns the stream length, or an ErrUnknownStream error for a
// stream that was never written.
func (b *MemBackend) Size(stream string) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.streams[stream]
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownStream, stream)
	}
	return s.size, nil
}

// Close releases the stream map.
func (b *MemBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.streams = make(map[string]*memStream)
	return nil
}

// FileBackend stores each stream as a file under a directory, the layout
// §7 describes (one file per vertex/edge/update set per partition).
type FileBackend struct {
	dir   string
	mu    sync.Mutex
	files map[string]*fileStream
}

// fileStream is one stream's open handle and its append offset. The
// backend is the file's only writer, so the offset is read from the file
// once, on open, and kept here: an append is one WriteAt, not a seek to
// find the end followed by a write.
type fileStream struct {
	f    *os.File
	size int64
}

// NewFileBackend creates (if needed) dir and returns a backend rooted there.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return &FileBackend{dir: dir, files: make(map[string]*fileStream)}, nil
}

// file returns the open stream. Only Write may create the backing file;
// read-only operations on a stream that was never written report
// ErrUnknownStream instead of leaving an empty file behind.
func (b *FileBackend) file(stream string, create bool) (*fileStream, error) {
	if s, ok := b.files[stream]; ok {
		return s, nil
	}
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE
	}
	f, err := os.OpenFile(filepath.Join(b.dir, stream), flags, 0o644)
	if !create && errors.Is(err, fs.ErrNotExist) {
		// On the create path ErrNotExist means real trouble (the base
		// directory vanished), not an unknown stream.
		return nil, fmt.Errorf("%w %q", ErrUnknownStream, stream)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close() // the Stat error is the one to report
		return nil, fmt.Errorf("storage: %w", err)
	}
	s := &fileStream{f: f, size: st.Size()}
	b.files[stream] = s
	return s, nil
}

// Write appends data to the stream's file, creating it on first write.
func (b *FileBackend) Write(stream string, data []byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.file(stream, true)
	if err != nil {
		return 0, err
	}
	off := s.size
	if _, err := s.f.WriteAt(data, off); err != nil {
		return 0, fmt.Errorf("storage: %w", err)
	}
	s.size += int64(len(data))
	return off, nil
}

// Read returns length bytes at offset, or an ErrUnknownStream error for a
// stream that was never written.
func (b *FileBackend) Read(stream string, offset int64, length int) ([]byte, error) {
	out := make([]byte, length)
	if err := b.ReadInto(stream, offset, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto fills dst from the stream's file at offset.
func (b *FileBackend) ReadInto(stream string, offset int64, dst []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.file(stream, false)
	if err != nil {
		return err
	}
	if _, err := s.f.ReadAt(dst, offset); err != nil {
		return fmt.Errorf("storage: read %q@%d: %w", stream, offset, err)
	}
	return nil
}

// Truncate empties the stream's file. Like MemBackend, truncating a
// stream that was never written is a no-op and does not create a file.
func (b *FileBackend) Truncate(stream string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.file(stream, false)
	if errors.Is(err, ErrUnknownStream) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	s.size = 0
	return nil
}

// Size returns the stream file's length, or an ErrUnknownStream error for
// a stream that was never written.
func (b *FileBackend) Size(stream string) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.file(stream, false)
	if err != nil {
		return 0, err
	}
	return s.size, nil
}

// Close closes every open file.
func (b *FileBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var first error
	for _, s := range b.files {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	b.files = make(map[string]*fileStream)
	return first
}
