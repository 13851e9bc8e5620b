package sim

import "fmt"

// Resource models a FIFO server with a fixed per-operation latency and a
// byte bandwidth: a storage device, a NIC, or a CPU complex. Requests are
// served in arrival order; a request arriving while the server is busy
// queues behind the previous one. The model is the standard single-server
// queue shortcut: rather than simulating the queue explicitly, the server
// tracks the time at which it next becomes free.
type Resource struct {
	env *Env
	// Name identifies the resource in statistics output.
	Name string
	// BytesPerSec is the service bandwidth; zero means infinitely fast.
	BytesPerSec float64
	// Latency is the fixed per-operation overhead (seek, request setup).
	Latency Time

	freeAt Time
	busy   Time
	bytes  int64
}

// NewResource creates a FIFO resource attached to env.
func NewResource(env *Env, name string, bytesPerSec float64, latency Time) *Resource {
	return &Resource{env: env, Name: name, BytesPerSec: bytesPerSec, Latency: latency}
}

// ServiceTime returns the raw service time for an operation of the given
// size, excluding queueing.
func (r *Resource) ServiceTime(bytes int64) Time {
	t := r.Latency
	if r.BytesPerSec > 0 {
		t += Time(float64(bytes) / r.BytesPerSec * float64(Second))
	}
	return t
}

// reserve books an operation and returns its completion time.
func (r *Resource) reserve(bytes int64) Time {
	start := r.env.now
	if r.freeAt > start {
		start = r.freeAt
	}
	svc := r.ServiceTime(bytes)
	r.freeAt = start + svc
	r.busy += svc
	r.bytes += bytes
	return r.freeAt
}

// Use performs a blocking operation of the given size from process context:
// the process queues, is served, and resumes when the operation completes.
// It returns the completion time.
func (r *Resource) Use(p *Proc, bytes int64) Time {
	done := r.reserve(bytes)
	p.SleepUntil(done)
	return done
}

// Schedule books a non-blocking operation and invokes fn (in scheduler
// context) when it completes. fn may be nil.
func (r *Resource) Schedule(bytes int64, fn func()) Time {
	done := r.reserve(bytes)
	if fn != nil {
		r.env.At(done, fn)
	}
	return done
}

// BusyTime returns the cumulative time this resource has spent serving.
func (r *Resource) BusyTime() Time { return r.busy }

// Bytes returns the cumulative bytes served.
func (r *Resource) Bytes() int64 { return r.bytes }

// Utilization returns busy time divided by elapsed virtual time.
func (r *Resource) Utilization() float64 {
	if r.env.now == 0 {
		return 0
	}
	return float64(r.busy) / float64(r.env.now)
}

func (r *Resource) String() string {
	return fmt.Sprintf("%s{bw=%.0fB/s lat=%v util=%.1f%%}", r.Name, r.BytesPerSec, r.Latency, 100*r.Utilization())
}
