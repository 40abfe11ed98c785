package types

// Outbox is the output half of a protocol module: Post queues a message,
// Drain hands out what was posted since the last Drain, in order. A
// module embeds it and keeps only its send, which stamps the sender. Its
// two buffers are swapped, so a steady Post/Drain cycle allocates nothing.
type Outbox[M any] struct {
	out, spare []M // the queue and what the last Drain handed out
}

// Post queues m for the next Drain.
func (o *Outbox[M]) Post(m M) { o.out = append(o.out, m) }

// Drain returns pending outbound messages. The slice is valid until the
// next Drain, which reuses it: a caller that keeps a message past that
// copies it (the runner and the live host send each one on at once).
func (o *Outbox[M]) Drain() []M {
	out := o.out
	clear(o.spare) // what the last Drain returned is void now: let it go
	o.out, o.spare = o.spare[:0], out
	return out
}

// Decisions is a module's stream of decided values, handed to the host
// in slot order.
type Decisions struct {
	decided []Decision
}

// Decide appends slot's decision to the stream.
func (d *Decisions) Decide(slot Seq, v Value) {
	d.decided = append(d.decided, Decision{Slot: slot, Val: v})
}

// Decided returns the decisions not yet taken, oldest first; the slice
// is valid until TakeDecisions.
func (d *Decisions) Decided() []Decision { return d.decided }

// TakeDecisions drains newly decided values in order.
func (d *Decisions) TakeDecisions() []Decision {
	taken := d.decided
	d.decided = nil
	return taken
}
