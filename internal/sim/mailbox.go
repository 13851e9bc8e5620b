package sim

// Mailbox is an unbounded FIFO message queue with at most one waiting
// receiver, the usual shape for an actor-style engine inbox. Senders never
// block; a receiver parks until a message arrives.
type Mailbox struct {
	env    *Env
	name   string
	reason string // a receiver's park reason, built once
	// q[head:] are the queued messages. A drained queue restarts at the
	// front of its array, so a steady flow reuses one backing array.
	q      []any
	head   int
	waiter *Proc
}

// NewMailbox creates a mailbox attached to env.
func NewMailbox(env *Env, name string) *Mailbox {
	return &Mailbox{env: env, name: name, reason: "recv " + name}
}

// Put delivers msg immediately (at the current virtual time), waking the
// receiver if one is parked. It may be called from process or scheduler
// context.
func (m *Mailbox) Put(msg any) {
	m.q = append(m.q, msg)
	if m.waiter != nil {
		w := m.waiter
		m.waiter = nil
		m.env.scheduleWake(m.env.now, w)
	}
}

// PutAfter delivers msg d from now. It models transmission or processing
// delays without tying up the sending process.
func (m *Mailbox) PutAfter(d Time, msg any) {
	m.env.After(d, func() { m.Put(msg) })
}

// Recv returns the next message, parking the calling process until one is
// available. Only one process may wait on a mailbox at a time.
func (m *Mailbox) Recv(p *Proc) any {
	for m.head == len(m.q) {
		if m.waiter != nil && m.waiter != p {
			panic("sim: two processes waiting on mailbox " + m.name)
		}
		m.waiter = p
		p.park(m.reason)
	}
	msg := m.q[m.head]
	m.q[m.head] = nil // the array must not keep a received message reachable
	if m.head++; m.head == len(m.q) {
		m.q, m.head = m.q[:0], 0
	}
	return msg
}

// Barrier makes n processes rendezvous: each caller parks until all n have
// arrived, then all resume at the same virtual time. Barriers are reusable
// (generation-counted).
type Barrier struct {
	env     *Env
	n       int
	arrived int
	waiting []*Proc
}

// NewBarrier creates a barrier for n parties.
func NewBarrier(env *Env, n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier requires at least one party")
	}
	return &Barrier{env: env, n: n}
}

// Wait blocks p until all parties have arrived.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		for _, w := range b.waiting {
			b.env.scheduleWake(b.env.now, w)
		}
		b.waiting = b.waiting[:0]
		return
	}
	b.waiting = append(b.waiting, p)
	p.park("barrier")
}
