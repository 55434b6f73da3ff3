package workload

import "fmt"

// DropPolicy selects what a full queue does with an incoming arrival.
type DropPolicy uint8

const (
	// DropNewest rejects the incoming arrival (tail drop), the classic
	// open-loop discipline: queued messages keep their positions.
	DropNewest DropPolicy = iota + 1
	// DropOldest evicts the head to make room for the incoming arrival —
	// freshest-first semantics for telemetry-style workloads where a newer
	// reading supersedes a stale one.
	DropOldest
)

// String implements fmt.Stringer with the stable schema spelling.
func (p DropPolicy) String() string {
	switch p {
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	}
	return fmt.Sprintf("DropPolicy(%d)", uint8(p))
}

// queue is one node's bounded FIFO of pending messages. Entries are the
// arrival rounds (all a message's SLO accounting needs); it is a ring
// buffer so steady-state enqueue/dequeue allocates nothing.
type queue struct {
	buf  []int32
	head int
	n    int
}

// newQueue returns a queue bounded at cap messages.
func newQueue(cap int) queue { return queue{buf: make([]int32, cap)} }

// len returns the current depth.
func (q *queue) len() int { return q.n }

// push enqueues an arrival round; it reports false when the queue is full
// (the caller accounts the drop per its policy).
func (q *queue) push(round int32) bool {
	if q.n == len(q.buf) {
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = round
	q.n++
	return true
}

// pop dequeues the oldest arrival round; ok=false when empty.
func (q *queue) pop() (int32, bool) {
	if q.n == 0 {
		return 0, false
	}
	v := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v, true
}
