package durable

import (
	"container/list"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"
)

// ResultStore is a disk-backed content-addressed blob store: key ->
// results/<key[:2]>/<key>. It backs the service's in-memory result
// cache as a second tier, so memoized runs survive restarts. Total size
// is bounded: when the store exceeds maxBytes, the least-recently-used
// blobs are deleted. Recency survives restarts through file mtimes
// (touched on every hit), so a reboot does not reset the eviction
// order.
type ResultStore struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*list.Element // key -> lru element
	lru     *list.List               // front = most recently used
	total   int64

	hits, misses, evictions int
}

type storeEntry struct {
	key  string
	size int64
}

// Result-store keys are hex digests (the service uses sha256), which
// keeps every path one safe flat filename.
var storeKeyRE = regexp.MustCompile(`^[0-9a-f]{8,128}$`)

// OpenResultStore opens (creating if necessary) the store rooted at
// dir, indexing the blobs a previous process left, oldest-mtime coldest.
// maxBytes <= 0 means unbounded.
func OpenResultStore(dir string, maxBytes int64) (*ResultStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &ResultStore{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
	type found struct {
		storeEntry
		mtime time.Time
	}
	var blobs []found
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		key := d.Name()
		if !storeKeyRE.MatchString(key) {
			return nil // temp file or foreign debris; leave it alone
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		blobs = append(blobs, found{storeEntry{key, info.Size()}, info.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("durable: indexing result store: %w", err)
	}
	sort.Slice(blobs, func(i, k int) bool { return blobs[i].mtime.Before(blobs[k].mtime) })
	for _, b := range blobs { // oldest first, so each PushFront lands it colder than the next
		s.entries[b.key] = s.lru.PushFront(b.storeEntry)
		s.total += b.size
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

func (s *ResultStore) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// Get returns the blob stored under key and marks it most recently
// used (on disk too, via mtime, so recency survives restarts).
func (s *ResultStore) Get(key string) ([]byte, bool) {
	if !storeKeyRE.MatchString(key) {
		return nil, false
	}
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.lru.MoveToFront(e)
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		// The file vanished under us (manual cleanup?); drop the index
		// entry and report a miss rather than an error.
		s.mu.Lock()
		if e, ok := s.entries[key]; ok {
			s.total -= e.Value.(storeEntry).size
			s.lru.Remove(e)
			delete(s.entries, key)
		}
		s.hits--
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	now := time.Now()
	os.Chtimes(s.path(key), now, now) // best effort
	return data, true
}

// Put stores data under key (a no-op when the key exists — blobs are
// content-addressed, so equal keys mean equal bytes) and evicts the
// coldest blobs if the store now exceeds its bound. The blob is fsynced
// before Put returns: the caller journals the job's done transition only
// after, so a job the journal holds as done never finds a hole where its
// result should be. No record names the blob; the store re-indexes its
// own directory on open.
func (s *ResultStore) Put(key string, data []byte) error {
	if !storeKeyRE.MatchString(key) {
		return fmt.Errorf("durable: invalid result-store key %q", key)
	}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.lru.MoveToFront(e)
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	shard := filepath.Join(s.dir, key[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return err
	}
	if err := WriteFileAtomic(s.path(key), data); err != nil {
		return fmt.Errorf("durable: storing result %s: %w", key, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return nil // raced another Put of the same content
	}
	s.entries[key] = s.lru.PushFront(storeEntry{key, int64(len(data))})
	s.total += int64(len(data))
	s.evictLocked()
	return nil
}

// Delete removes a blob (used when a reader finds the stored bytes
// undecodable: dropping the key lets the deterministic rerun rewrite
// it, since Put is a no-op for keys the index already has). Missing
// keys are a no-op.
func (s *ResultStore) Delete(key string) {
	if !storeKeyRE.MatchString(key) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return
	}
	os.Remove(s.path(key))
	s.total -= e.Value.(storeEntry).size
	s.lru.Remove(e)
	delete(s.entries, key)
}

// evictLocked deletes cold blobs until the store fits its bound,
// always sparing the most recently used one.
func (s *ResultStore) evictLocked() {
	for s.maxBytes > 0 && s.total > s.maxBytes && s.lru.Len() > 1 {
		e := s.lru.Back()
		ent := e.Value.(storeEntry)
		os.Remove(s.path(ent.key)) // best effort; the index is authoritative
		s.lru.Remove(e)
		delete(s.entries, ent.key)
		s.total -= ent.size
		s.evictions++
	}
}

// StoreStats snapshots the store's counters for /v1/stats.
type StoreStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"maxBytes,omitempty"`
	Hits      int   `json:"hits"`
	Misses    int   `json:"misses"`
	Evictions int   `json:"evictions"`
}

// Stats snapshots the store's counters.
func (s *ResultStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Entries:   len(s.entries),
		Bytes:     s.total,
		MaxBytes:  s.maxBytes,
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
	}
}
