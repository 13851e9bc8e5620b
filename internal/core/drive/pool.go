package drive

import (
	"runtime"
	"sync"
)

// Task is one unit of off-thread compute. Fn runs on a pool worker after
// the optional predecessor completes. A Task is used through a pointer
// and never copied once submitted.
type Task struct {
	Prev *Task
	Fn   func()
	// done is released when Fn has returned. It is part of the Task, not
	// a channel made per Submit: a chunk costs two or three tasks, and a
	// steady iteration allocates little else.
	done sync.WaitGroup
}

// Wait blocks until the task has completed; a task that was never
// submitted (its result computed inline) counts as complete. The wait
// also establishes the happens-before edge that lets the caller read the
// task's results race-free.
func (t *Task) Wait() { t.done.Wait() }

// Pool runs chunk tasks on a fixed set of goroutines. Tasks are executed
// FIFO per worker pull; a task's Prev (if any) is always submitted
// earlier, so the pull order guarantees the predecessor has been picked
// up by some worker (or finished) before the successor runs — chained
// waits cannot deadlock, for any pool size.
//
// With one worker (or on a single-core host) there is nothing to overlap
// with, so the pool degenerates to inline mode: Submit runs the task on
// the spot and Wait is free. Because every task is pure and ordered only
// by its explicit dependencies, inline execution produces bit-identical
// results to any pool size — inline mode IS the serial baseline the
// DES driver's determinism tests compare against. The native driver
// shares the pool for its per-chunk compute: there the pool size only
// changes wall-clock overlap, never results, by the same purity argument.
type Pool struct {
	inline bool
	width  int
	tasks  chan *Task
	wg     sync.WaitGroup
}

// NewPool builds a pool of the given width; workers <= 0 means
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Clamp: the worker count reaches this point from the network-facing
	// job API, and goroutines are a real host resource. Extra workers
	// beyond the core count buy nothing for pure compute; the floor
	// keeps a real pool testable on small hosts.
	if limit := max(4*runtime.GOMAXPROCS(0), 16); workers > limit {
		workers = limit
	}
	if workers <= 1 {
		return &Pool{inline: true, width: 1}
	}
	p := &Pool{width: workers, tasks: make(chan *Task, 4096)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				if t.Prev != nil {
					t.Prev.Wait()
					t.Prev = nil
				}
				t.Fn()
				// Drop the closure so the captured inputs (notably a
				// chunk's bytes) become collectable as soon as the
				// result exists, not when it is merged.
				t.Fn = nil
				t.done.Done()
			}
		}()
	}
	return p
}

// Window is how many chunk tasks a streaming producer keeps in flight on
// the pool: one per worker plus one, so no worker waits for the producer
// to merge a result before its next task exists, and no more — each task
// in flight holds a chunk's worth of output that no budget has seen yet.
func (p *Pool) Window() int { return p.width + 1 }

// Submit enqueues a task. Submission order is the determinism contract:
// a task must be submitted after its Prev and after any task its Fn
// Waits for — which is also why inline execution at submit time is
// always legal.
func (p *Pool) Submit(t *Task) {
	if p.inline {
		t.Fn()
		t.Fn, t.Prev = nil, nil
		return
	}
	t.done.Add(1)
	p.tasks <- t
}

// Close drains and stops the workers. All submitted tasks run to
// completion first.
func (p *Pool) Close() {
	if p.inline {
		return
	}
	close(p.tasks)
	p.wg.Wait()
}
