package amac

import (
	"fmt"

	"lbcast/internal/core"
	"lbcast/internal/sim"
)

// Guarantees are the abstract MAC layer's advertised bounds.
type Guarantees struct {
	// FAck bounds bcast→ack latency in rounds (with probability ≥ 1−Eps).
	FAck int
	// FProg bounds the progress latency in rounds (with probability ≥ 1−Eps).
	FProg int
	// Eps is the per-property error bound.
	Eps float64
}

// FromLBParams derives the layer guarantees from an LBAlg schedule,
// mediating between the low-level round-based definition and the layer's
// event-based one exactly as the paper's conclusion sketches.
func FromLBParams(p core.Params) Guarantees {
	return Guarantees{FAck: p.TAckBound(), FProg: p.TProgBound(), Eps: p.Eps1}
}

// Layer is one node's abstract MAC endpoint.
type Layer interface {
	// Bcast hands a message to the layer; the layer eventually acks it.
	Bcast(payload any) (sim.MsgID, error)
	// Busy reports whether a message is still in flight (no ack yet).
	Busy() bool
	// SetOnAck and SetOnRecv register the layer's output events.
	SetOnAck(func(core.Message))
	SetOnRecv(func(core.Message, int))
	// Guarantees returns the layer's advertised f_ack/f_prog bounds.
	Guarantees() Guarantees
}

// Adapter lifts any core.Service (LBAlg or a baseline) into a Layer.
type Adapter struct {
	svc core.Service
	g   Guarantees
}

var _ Layer = (*Adapter)(nil)

// NewAdapter wraps the service with the given guarantees.
func NewAdapter(svc core.Service, g Guarantees) *Adapter {
	return &Adapter{svc: svc, g: g}
}

// Bcast implements Layer.
func (a *Adapter) Bcast(payload any) (sim.MsgID, error) { return a.svc.Bcast(payload) }

// Busy implements Layer.
func (a *Adapter) Busy() bool { return a.svc.Active() }

// SetOnAck implements Layer.
func (a *Adapter) SetOnAck(fn func(core.Message)) { a.svc.SetOnAck(fn) }

// SetOnRecv implements Layer.
func (a *Adapter) SetOnRecv(fn func(core.Message, int)) { a.svc.SetOnRecv(fn) }

// Guarantees implements Layer.
func (a *Adapter) Guarantees() Guarantees { return a.g }

// FloodKey identifies one flooded message across relays: the pair
// (originator, sequence at originator).
type FloodKey struct {
	Origin int
	Seq    int
}

// FloodPayload is the application payload relayed hop by hop.
type FloodPayload struct {
	Key  FloodKey
	Body any
}

// Flood coordinates multi-hop global broadcast over per-node abstract MAC
// layers: every node re-broadcasts each distinct flooded message exactly
// once (the basic MMB algorithm of the abstract MAC layer literature).
// It implements sim.Environment.
type Flood struct {
	layers []Layer

	queue     [][]FloodPayload // per-node relay queues
	relayed   []map[FloodKey]struct{}
	delivered []map[FloodKey]struct{}

	deliveredCount map[FloodKey]int
	completionAt   map[FloodKey]int
	startAt        map[FloodKey]int
	nextSeq        int
	round          int
}

var _ sim.Environment = (*Flood)(nil)

// NewFlood wires the controller to the per-node layers.
func NewFlood(layers []Layer) *Flood {
	f := &Flood{
		layers:         layers,
		queue:          make([][]FloodPayload, len(layers)),
		relayed:        make([]map[FloodKey]struct{}, len(layers)),
		delivered:      make([]map[FloodKey]struct{}, len(layers)),
		deliveredCount: make(map[FloodKey]int),
		completionAt:   make(map[FloodKey]int),
		startAt:        make(map[FloodKey]int),
	}
	for u := range layers {
		f.relayed[u] = make(map[FloodKey]struct{})
		f.delivered[u] = make(map[FloodKey]struct{})
		u := u
		layers[u].SetOnRecv(func(m core.Message, _ int) {
			fp, ok := m.Payload.(FloodPayload)
			if !ok {
				return
			}
			f.noteDelivered(u, fp.Key)
			f.enqueueRelay(u, fp)
		})
	}
	return f
}

// Start injects a new flood at the origin node; the message counts as
// delivered at the origin immediately. It returns the flood's key.
func (f *Flood) Start(origin int, body any) (FloodKey, error) {
	if origin < 0 || origin >= len(f.layers) {
		return FloodKey{}, fmt.Errorf("amac: origin %d out of range", origin)
	}
	f.nextSeq++
	key := FloodKey{Origin: origin, Seq: f.nextSeq}
	fp := FloodPayload{Key: key, Body: body}
	f.startAt[key] = f.round + 1
	f.noteDelivered(origin, key)
	f.enqueueRelay(origin, fp) // the origin "relays" its own message first
	return key, nil
}

func (f *Flood) noteDelivered(u int, key FloodKey) {
	if _, dup := f.delivered[u][key]; dup {
		return
	}
	f.delivered[u][key] = struct{}{}
	f.deliveredCount[key]++
	if f.deliveredCount[key] == len(f.layers) {
		f.completionAt[key] = f.round
	}
}

func (f *Flood) enqueueRelay(u int, fp FloodPayload) {
	if _, dup := f.relayed[u][fp.Key]; dup {
		return
	}
	f.relayed[u][fp.Key] = struct{}{}
	f.queue[u] = append(f.queue[u], fp)
}

// BeforeRound implements sim.Environment: idle nodes start their next
// queued relay.
func (f *Flood) BeforeRound(t int) {
	f.round = t
	for u, layer := range f.layers {
		if len(f.queue[u]) == 0 || layer.Busy() {
			continue
		}
		fp := f.queue[u][0]
		if _, err := layer.Bcast(fp); err != nil {
			continue // still busy; retry next round
		}
		f.queue[u] = f.queue[u][1:]
	}
}

// AfterRound implements sim.Environment.
func (f *Flood) AfterRound(t int) { f.round = t }

// Coverage returns how many nodes hold the flood.
func (f *Flood) Coverage(key FloodKey) int { return f.deliveredCount[key] }

// Complete reports whether every node holds the flood, and the round at
// which the last node got it.
func (f *Flood) Complete(key FloodKey) (round int, done bool) {
	round, done = f.completionAt[key]
	return round, done
}

// Latency returns completion round − start round, once complete.
func (f *Flood) Latency(key FloodKey) (int, bool) {
	end, done := f.completionAt[key]
	if !done {
		return 0, false
	}
	return end - f.startAt[key], true
}
