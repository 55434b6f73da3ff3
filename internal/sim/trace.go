package sim

import (
	"fmt"
	"iter"
	"sort"
)

// EventKind classifies protocol events recorded in a trace.
type EventKind uint8

const (
	// EvBcast is the environment input bcast(m)_u starting a broadcast.
	EvBcast EventKind = iota + 1
	// EvAck is the output ack(m)_u completing a broadcast.
	EvAck
	// EvRecv is the output recv(m)_u delivering a message.
	EvRecv
	// EvDecide is the seed agreement output decide(j, s)_u.
	EvDecide
	// EvHear is a channel-level reception of a protocol data message,
	// recorded even for duplicates. The progress property of the LB problem
	// is defined over receptions ("u receives at least one message m_v …"),
	// not over the deduplicated recv outputs, so checkers need both.
	EvHear

	// numEventKinds bounds the kind space for per-kind counters.
	numEventKinds = int(EvHear) + 1
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvBcast:
		return "bcast"
	case EvAck:
		return "ack"
	case EvRecv:
		return "recv"
	case EvDecide:
		return "decide"
	case EvHear:
		return "hear"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one protocol event. Which fields are meaningful depends on Kind:
//
//   - EvBcast:  Node = broadcaster, MsgID = message.
//   - EvAck:    Node = broadcaster, MsgID = message.
//   - EvRecv:   Node = receiver, From = transmitter heard, MsgID = message.
//   - EvDecide: Node = deciding node, From = seed owner id.
type Event struct {
	Round   int
	Node    int
	Kind    EventKind
	From    int
	MsgID   MsgID
	Payload any
}

// MsgID identifies a broadcast message globally. The message sets M_u of the
// paper are pairwise disjoint; encoding the source in the id enforces that.
type MsgID int64

// NewMsgID builds the id of the seq-th message of the given source.
func NewMsgID(src, seq int) MsgID {
	return MsgID(int64(src)<<32 | int64(uint32(seq)))
}

// Src returns the message's source node.
func (m MsgID) Src() int { return int(int64(m) >> 32) }

// Seq returns the message's per-source sequence number.
func (m MsgID) Seq() int { return int(uint32(int64(m))) }

// String implements fmt.Stringer.
func (m MsgID) String() string { return fmt.Sprintf("m(%d,%d)", m.Src(), m.Seq()) }

// eventChunkLen is the fixed capacity of one column chunk. Chunked growth
// keeps appends O(1) without ever copying recorded history, and bounds the
// transient overshoot of a growing trace to one chunk.
const eventChunkLen = 4096

// eventChunk is one fixed-size block of the columnar event store. Events are
// stored struct-of-arrays: five narrow parallel columns instead of the 56-byte
// row form of Event, cutting steady-state trace bytes by more than half.
// Rounds, nodes and transmitter ids fit int32 at any simulated scale.
type eventChunk struct {
	round []int32
	node  []int32
	kind  []EventKind
	from  []int32
	msgID []MsgID
}

func newEventChunk() *eventChunk {
	return &eventChunk{
		round: make([]int32, 0, eventChunkLen),
		node:  make([]int32, 0, eventChunkLen),
		kind:  make([]EventKind, 0, eventChunkLen),
		from:  make([]int32, 0, eventChunkLen),
		msgID: make([]MsgID, 0, eventChunkLen),
	}
}

// eventStore is the chunked struct-of-arrays event log. Payloads are opaque
// interface values carried by very few events (bcast inputs), so they live in
// a sparse side table keyed by global event index instead of a 16-byte
// interface column on every event.
type eventStore struct {
	chunks []*eventChunk
	n      int

	// droppedChunks counts head chunks released by DiscardBefore; logical
	// event indices keep counting from the start of the execution, so
	// chunk ci of index i lives at chunks[ci - droppedChunks].
	droppedChunks int

	// kindCount[k] counts recorded events of kind k, so ByKind can
	// preallocate its result exactly.
	kindCount [numEventKinds + 1]int

	// payIdx (ascending) and payVal hold the sparse payload table.
	payIdx []int32
	payVal []any

	// spill, when non-nil, moves sealed chunks to disk as they age past the
	// retention window; entries of chunks are nil for spilled chunks and
	// reads go through chunk() (see spill.go).
	spill *traceSpill
}

// append records one event.
func (s *eventStore) append(ev Event) {
	var c *eventChunk
	if len(s.chunks) == 0 || len(s.chunks[len(s.chunks)-1].round) == eventChunkLen {
		c = newEventChunk()
		s.chunks = append(s.chunks, c)
		s.maybeSpill()
	} else {
		c = s.chunks[len(s.chunks)-1]
	}
	c.round = append(c.round, int32(ev.Round))
	c.node = append(c.node, int32(ev.Node))
	c.kind = append(c.kind, ev.Kind)
	c.from = append(c.from, int32(ev.From))
	c.msgID = append(c.msgID, ev.MsgID)
	if ev.Payload != nil {
		s.payIdx = append(s.payIdx, int32(s.n))
		s.payVal = append(s.payVal, ev.Payload)
	}
	if k := int(ev.Kind); k >= 0 && k <= numEventKinds {
		s.kindCount[k]++
	}
	s.n++
}

// appendAll bulk-records a drained per-node buffer: the chunk-boundary check
// runs per chunk-sized batch instead of per event, and the engine's
// stamp-round-0 fixup folds into the same pass. Semantically identical to
// calling append for each event with ev.Round defaulted to defaultRound.
func (s *eventStore) appendAll(evs []Event, defaultRound int) {
	i := 0
	for i < len(evs) {
		var c *eventChunk
		if len(s.chunks) == 0 || len(s.chunks[len(s.chunks)-1].round) == eventChunkLen {
			c = newEventChunk()
			s.chunks = append(s.chunks, c)
			s.maybeSpill()
		} else {
			c = s.chunks[len(s.chunks)-1]
		}
		// Extend the columns once per batch and fill by index: chunks are
		// allocated at full capacity, so this replaces five bounds-checked
		// appends per event with plain stores — the difference is visible in
		// the n = 10⁵ sweep, where the hear-event drain is a top cost.
		k := len(c.round)
		batch := evs[i:min(i+eventChunkLen-k, len(evs))]
		m := k + len(batch)
		c.round, c.node, c.kind = c.round[:m], c.node[:m], c.kind[:m]
		c.from, c.msgID = c.from[:m], c.msgID[:m]
		for j, ev := range batch {
			r := ev.Round
			if r == 0 {
				r = defaultRound
			}
			c.round[k+j] = int32(r)
			c.node[k+j] = int32(ev.Node)
			c.kind[k+j] = ev.Kind
			c.from[k+j] = int32(ev.From)
			c.msgID[k+j] = ev.MsgID
			if ev.Payload != nil {
				s.payIdx = append(s.payIdx, int32(s.n+j))
				s.payVal = append(s.payVal, ev.Payload)
			}
			if k := int(ev.Kind); k >= 0 && k <= numEventKinds {
				s.kindCount[k]++
			}
		}
		s.n += len(batch)
		i += len(batch)
	}
}

// at reassembles event i from the columns.
func (s *eventStore) at(i int) Event {
	ci := i/eventChunkLen - s.droppedChunks
	if ci < 0 {
		panic(fmt.Sprintf("sim: event %d was released by Trace.DiscardBefore", i))
	}
	c := s.chunk(ci)
	j := i % eventChunkLen
	ev := Event{
		Round: int(c.round[j]),
		Node:  int(c.node[j]),
		Kind:  c.kind[j],
		From:  int(c.from[j]),
		MsgID: c.msgID[j],
	}
	if len(s.payIdx) > 0 {
		p := sort.Search(len(s.payIdx), func(k int) bool { return s.payIdx[k] >= int32(i) })
		if p < len(s.payIdx) && s.payIdx[p] == int32(i) {
			ev.Payload = s.payVal[p]
		}
	}
	return ev
}

// Trace accumulates the protocol events of one execution together with
// aggregate channel statistics. It is populated single-threadedly by the
// engine (per-node buffers are drained in node order), so reads after Run
// need no synchronisation and event order is deterministic.
//
// Events are held in a chunked columnar store (see eventStore); access them
// positionally with Len/At, or in order with the Events iterator, ByKind and
// ByNode.
type Trace struct {
	store eventStore

	// RoundsRun counts executed rounds.
	RoundsRun int
	// Transmissions counts node-rounds spent transmitting.
	Transmissions int
	// Deliveries counts successful receptions.
	Deliveries int
	// Collisions counts listener-rounds with two or more transmitting
	// topology neighbors (lost to interference).
	Collisions int

	// PerRound holds one entry per executed round when SampleRounds is
	// set before the run; otherwise it stays nil. It feeds activity
	// timelines (cmd/lbviz) and contention analyses.
	PerRound []RoundStat
	// SampleRounds enables PerRound collection.
	SampleRounds bool
}

// RoundStat is one round's channel activity.
type RoundStat struct {
	Round         int
	Transmissions int
	Deliveries    int
	Collisions    int
}

// Record appends an event. It must only be called from engine-owned
// contexts; protocol code uses the per-node Recorder instead.
func (tr *Trace) Record(ev Event) { tr.store.append(ev) }

// recordAll appends a batch of events, stamping events with Round 0 (bcast
// inputs recorded before their round number was known) with defaultRound —
// the engine's drain path.
func (tr *Trace) recordAll(evs []Event, defaultRound int) {
	tr.store.appendAll(evs, defaultRound)
}

// Len returns the number of recorded events.
func (tr *Trace) Len() int { return tr.store.n }

// At returns event i (i < Len, not released by DiscardBefore) in trace
// order. Incremental
// consumers — analyses that poll the trace between rounds — scan the tail
// with At(i) for i in [seen, Len()).
func (tr *Trace) At(i int) Event { return tr.store.at(i) }

// DiscardBefore releases the storage of every full chunk of events with
// index < i, for incremental consumers (lbspec.Monitor in no-retention
// mode) that have fully processed the head of the trace. Logical indices
// are unaffected: Len() keeps counting all recorded events, aggregate
// statistics and per-kind counters are untouched, and At/Events serve the
// retained suffix, which starts at the first unreleased chunk. Accessing a
// released index panics.
func (tr *Trace) DiscardBefore(i int) {
	s := &tr.store
	if i > s.n {
		i = s.n
	}
	drop := i/eventChunkLen - s.droppedChunks
	if drop <= 0 {
		return
	}
	// Shift in place: no allocation, and the released chunks (plus their
	// sparse payload entries) become collectable.
	keep := copy(s.chunks, s.chunks[drop:])
	for j := keep; j < len(s.chunks); j++ {
		s.chunks[j] = nil
	}
	s.chunks = s.chunks[:keep]
	s.droppedChunks += drop
	cut := 0
	for cut < len(s.payIdx) && int(s.payIdx[cut]) < s.droppedChunks*eventChunkLen {
		cut++
	}
	if cut > 0 {
		kp := copy(s.payIdx, s.payIdx[cut:])
		s.payIdx = s.payIdx[:kp]
		kv := copy(s.payVal, s.payVal[cut:])
		for j := kv; j < len(s.payVal); j++ {
			s.payVal[j] = nil
		}
		s.payVal = s.payVal[:kv]
	}
}

// Events iterates over all recorded events in trace order, walking the
// columns chunk by chunk without materialising []Event. Sparse payloads are
// joined with a single cursor over the payload table (indices are visited
// ascending), so a full walk costs O(events + payloads).
func (tr *Trace) Events() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		payIdx, payVal := tr.store.payIdx, tr.store.payVal
		base, p := tr.store.droppedChunks*eventChunkLen, 0
		for ci := range tr.store.chunks {
			c := tr.store.chunk(ci)
			for j := range c.round {
				ev := Event{
					Round: int(c.round[j]),
					Node:  int(c.node[j]),
					Kind:  c.kind[j],
					From:  int(c.from[j]),
					MsgID: c.msgID[j],
				}
				if p < len(payIdx) && payIdx[p] == int32(base+j) {
					ev.Payload = payVal[p]
					p++
				}
				if !yield(ev) {
					return
				}
			}
			base += len(c.round)
		}
	}
}

// ByKind returns the events of the given kind, in trace order. The result is
// allocated exactly once, sized from the store's per-kind counters.
func (tr *Trace) ByKind(kind EventKind) []Event {
	count := 0
	if k := int(kind); k >= 0 && k <= numEventKinds {
		count = tr.store.kindCount[k]
	}
	if count == 0 {
		return nil
	}
	out := make([]Event, 0, count)
	for ev := range tr.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
			if len(out) == count {
				break
			}
		}
	}
	return out
}

// nodeRecorder buffers one node's events between engine drain points, so
// concurrent drivers never contend on the shared trace. On its first record
// since the last drain it pushes its node onto the engine's dirty list, so
// draining costs O(recording nodes), never O(n).
type nodeRecorder struct {
	buf    []Event
	listed bool
	eng    *Engine
	node   int32
}

// Record implements Recorder: events buffer per node and enter the trace in
// deterministic node order at the next engine drain.
func (r *nodeRecorder) Record(ev Event) {
	r.buf = append(r.buf, ev)
	if !r.listed && r.eng != nil {
		// listed is owned by the recording node (one goroutine per node in
		// every driver); only the slot reservation below is contended.
		r.listed = true
		i := r.eng.dirtyLen.Add(1) - 1
		r.eng.dirtyIdx[i] = r.node
	}
}
