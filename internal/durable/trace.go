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

// SpanHook observes durability operations. Install it with WAL.SetTrace.
//
// The hook is OBSERVATIONAL ONLY: it must not change what the journal
// writes or when (the same contract as chaos.WithTrace; the one
// installer is the job service, right after it opens the WAL). It is
// invoked with journal-internal locks held, so it must be cheap and
// must never call back into the journal or WAL; recording into a
// bounded ring (obs.Ring) is the intended consumer.
type SpanHook func(Span)

// SetTrace installs (or, with nil, removes) the WAL's span hook: the
// journal's append/fsync/rotate spans plus the WAL's own snapshot
// spans (see Compact). Install it before concurrent use — typically
// right after open, before the first append.
func (w *WAL) SetTrace(hook SpanHook) {
	w.mu.Lock()
	w.hook = hook
	w.mu.Unlock()
	w.journal.mu.Lock()
	w.journal.hook = hook
	w.journal.mu.Unlock()
}
