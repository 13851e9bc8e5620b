package service

import "sync"

// Event types carried by JobEvent.
const (
	// EventState marks a lifecycle transition (or the snapshot a fresh
	// subscriber receives first); Job is the payload-stripped view.
	EventState = "state"
	// EventProgress marks an engine iteration-boundary tick; Job carries
	// the live Progress snapshot and no timestamps.
	EventProgress = "progress"
)

// JobEvent is one entry of a job's event stream (the SSE payload).
type JobEvent struct {
	// Seq orders events hub-wide: within one job it is strictly
	// increasing, so clients can detect reordering or replay. The
	// snapshot that opens an SSE stream carries the watermark sequence
	// it is current as of; every live event that follows is above it.
	Seq  uint64  `json:"seq"`
	Type string  `json:"type"`
	Job  JobView `json:"job"`
}

// eventHub fans job events out to subscribers. Publishing never
// blocks: a progress tick that finds a subscriber's buffer full is
// dropped (advisory data; see publish), while a subscriber too slow
// for state transitions is disconnected (channel closed) so it can
// resubscribe and resync from a fresh snapshot instead of silently
// missing a transition.
type eventHub struct {
	mu     sync.Mutex
	seq    uint64
	closed bool
	subs   map[string]map[chan JobEvent]struct{}
}

// subBuffer is each subscriber's channel depth: enough for every
// lifecycle transition of a job plus a healthy run of progress ticks
// between reads.
const subBuffer = 64

func newEventHub() *eventHub {
	return &eventHub{subs: make(map[string]map[chan JobEvent]struct{})}
}

// subscribe registers for events about job id. The channel is closed
// when the subscriber falls too far behind a state transition, or when
// the hub shuts down; cancel unsubscribes (idempotent, safe after the
// hub-side close). On a closed hub the channel comes back already
// closed, so a stream opened during drain ends after its snapshot.
func (h *eventHub) subscribe(id string) (<-chan JobEvent, func()) {
	ch := make(chan JobEvent, subBuffer)
	h.mu.Lock()
	if h.closed {
		close(ch)
		h.mu.Unlock()
		return ch, func() {}
	}
	set := h.subs[id]
	if set == nil {
		set = make(map[chan JobEvent]struct{})
		h.subs[id] = set
	}
	set[ch] = struct{}{}
	h.mu.Unlock()
	cancel := func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if set, ok := h.subs[id]; ok {
			if _, live := set[ch]; live {
				h.dropLocked(id, ch)
			}
		}
	}
	return ch, cancel
}

// dropLocked removes and closes one subscription; callers hold h.mu
// and have verified the channel is still registered (the guard that
// makes close exactly-once).
func (h *eventHub) dropLocked(id string, ch chan JobEvent) {
	set := h.subs[id]
	delete(set, ch)
	if len(set) == 0 {
		delete(h.subs, id)
	}
	close(ch)
}

// lastSeq returns the hub's latest published sequence number — the
// watermark a snapshot taken now is at least as fresh as (publishers
// of job state hold the scheduler mutex across both the mutation and
// the publish, so anything at or below this seq is already reflected
// in a view snapshotted under that same mutex).
func (h *eventHub) lastSeq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// closeAll disconnects every subscriber and refuses new ones — called
// when shutdown begins, so open SSE streams end immediately instead of
// holding the HTTP server's drain budget for the life of their jobs.
func (h *eventHub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for id, set := range h.subs {
		for ch := range set {
			close(ch)
		}
		delete(h.subs, id)
	}
}

// publish delivers an event to every subscriber of the job,
// non-blocking. A full buffer drops the incoming progress tick — the
// ~64 queued ticks the client has not read are fresher signal than
// perfect recency, and the next state event against a still-full
// buffer disconnects the laggard anyway, forcing a resync from a fresh
// snapshot. A state event must never be silently lost, hence the
// disconnect rather than a drop.
func (h *eventHub) publish(id, typ string, v JobView) {
	h.mu.Lock()
	defer h.mu.Unlock()
	set := h.subs[id]
	if len(set) == 0 {
		return
	}
	h.seq++
	ev := JobEvent{Seq: h.seq, Type: typ, Job: v}
	// Each subscriber observes only its own channel: per-subscriber
	// ordering is fixed by seq, and cross-subscriber delivery order is
	// concurrent anyway, so iteration order cannot leak into anything a
	// client can distinguish.
	for ch := range set {
		select {
		case ch <- ev:
		default:
			if typ != EventProgress {
				h.dropLocked(id, ch)
			}
		}
	}
}
