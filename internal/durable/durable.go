// Package durable is the crash-safe persistence layer under the job
// service: a write-ahead journal with compacting snapshots, plus a
// disk-backed content-addressed result store.
//
// The design splits durability into two tiers with different shapes:
//
//   - Small, ordered facts — graph registrations and job lifecycle
//     transitions — go through the WAL: an append-only journal of
//     length-prefixed, checksummed JSON records (see Journal for the
//     on-disk framing). Appends are cheap buffered writes; an fsync
//     batcher makes the tail durable every SyncInterval, and Sync
//     forces it for records that must not be lost (a registration
//     acknowledged with 201). Replay on boot rebuilds state; a
//     periodic snapshot compacts the journal so replay time is bounded
//     by the state size, not the service's uptime.
//
//   - Large, immutable blobs — finished (Result, Report) payloads —
//     go to the ResultStore, a content-addressed directory tree
//     (results/<key[:2]>/<key>) with size-bounded LRU eviction. Blobs
//     are never journaled: the store re-indexes its own directory on
//     open.
//
// Record replay must be idempotent and convergent (the last record for
// an entity wins): compaction rotates the journal segment before
// capturing the snapshot, so records appended during the capture window
// can appear both in the snapshot and in the surviving segment. See
// WAL.Compact.
//
// The package knows nothing about the service's record schemas; it
// moves opaque kinds and JSON payloads. internal/service defines the
// graph and job record types and the recovery logic.
package durable

import "encoding/json"

// Record is one journal entry: a kind tag selecting the payload schema,
// plus the payload itself.
type Record struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}
