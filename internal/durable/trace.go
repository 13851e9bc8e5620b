package durable

import "time"

// Span is one durability operation as the observability layer sees it:
// what the WAL did (append, fsync, rotate, snapshot), when, for how
// long, and over how many bytes. It is the durable tier's contribution
// to the per-job trace tree the service serves — fsync stalls and
// compaction pauses become visible spans instead of unexplained gaps.
type Span struct {
	// Op is "append", "fsync", "rotate" or "snapshot".
	Op    string
	Start time.Time
	Dur   time.Duration
	// Bytes is the payload size for appends, 0 for the other ops.
	Bytes int
}

// SpanHook observes durability operations; OpenWAL takes it.
//
// The hook is OBSERVATIONAL ONLY: it must not change what the journal
// writes or when (the same contract as chaos.WithTrace; the job service
// is the one caller that passes one). It is invoked with
// journal-internal locks held, so it must be cheap and must never call
// back into the journal or WAL; recording into a bounded ring (obs.Ring)
// is the intended consumer.
type SpanHook func(Span)
