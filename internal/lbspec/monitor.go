package lbspec

import (
	"fmt"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sim"
)

// Invariant names carried by Violation records. The shrinker's repro
// criterion matches on these classes, so they are part of the
// lbcast-chaos/v1 schema.
const (
	// InvTimelyAck: a broadcast missed its t_ack acknowledgement deadline
	// (or acked late).
	InvTimelyAck = "timely-ack"
	// InvValidity: a recv/hear output without a matching active broadcast
	// by a G′ neighbor (unknown message, outside the span window, wrong
	// neighborhood, or a duplicate recv).
	InvValidity = "validity"
	// InvAckDiscipline: malformed broadcast/ack bookkeeping — duplicate
	// bcast without an intervening restart, orphan ack, double ack,
	// foreign ack.
	InvAckDiscipline = "ack-discipline"
)

// Violation is one spec breach, reported the moment the monitor observes
// it.
type Violation struct {
	Round     int       `json:"round"`
	Node      int       `json:"node"`
	Invariant string    `json:"invariant"`
	Msg       sim.MsgID `json:"msg"`
	Detail    string    `json:"detail"`
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("round %d node %d [%s] %v: %s", v.Round, v.Node, v.Invariant, v.Msg, v.Detail)
}

// MonitorConfig assembles an online checker.
type MonitorConfig struct {
	// Dual is the live dual graph of the execution. The monitor reads
	// G/G′ adjacency on demand and snapshots each broadcast's reliable
	// neighborhood at bcast time, so in-place PatchNode updates are picked
	// up without copies (see TopologyPatched).
	Dual *dualgraph.Dual
	// Trace is the engine's trace; pass the same *sim.Trace via
	// sim.Config.Trace. The monitor consumes the tail incrementally in
	// AfterRound.
	Trace *sim.Trace
	// TAck and TProg are the LB parameters. TAck must be positive; a
	// non-positive TProg disables progress accounting.
	TAck, TProg int
	// Inner is an optional wrapped environment, run before the monitor
	// observes each round.
	Inner sim.Environment
	// DiscardConsumed releases fully-consumed trace chunks after each
	// round (sim.Trace.DiscardBefore), capping trace memory at one chunk:
	// the no-retention mode for soaks and 10⁵⁺-node runs where post-hoc
	// checking is infeasible. Post-hoc consumers of the same trace will
	// only see the unconsumed tail.
	DiscardConsumed bool
}

// MaxViolations caps the Violation records a monitor retains; its total
// count keeps counting past it.
const MaxViolations = 4096

// mspan is the monitor's pooled per-broadcast state.
type mspan struct {
	msg             sim.MsgID
	node            int32
	start           int32
	end             int32 // valid once closed
	closed          bool
	excused         bool
	deadlineFlagged bool
	covers          bool // counted in covering[] for the current phase
	// neigh snapshots G-neighbors at bcast: PatchNode rewrites adjacency
	// in place, and reliability is owed to the neighborhood that existed
	// when the broadcast started.
	neigh []int32
	// recv maps receiver → reception record (any receiver, for duplicate
	// detection; reliability consults only neigh).
	recv map[int32]mrecvMark
}

// mrecvMark is one receiver's record of a span: first recv round for
// reliability, latest receiver incarnation for duplicate detection (a
// restarted receiver loses its dedup state and legitimately re-delivers an
// active message).
type mrecvMark struct {
	round, incarn int32
}

// retiredSpan is the compact tombstone kept per finished span so stale
// receptions and acks resolve to the right incarnation instead of
// reporting "unknown message".
type retiredSpan struct {
	start, end, node int32
	excused          bool
}

type deadlineEntry struct {
	msg   sim.MsgID
	start int32
}

// Monitor is a streaming online checker of the LB deterministic conditions
// plus the reliability/progress statistics of a Report. It implements
// sim.Environment: pass it (or an environment chain ending in it) as
// sim.Config.Env and it drains each round's events in AfterRound, keeping
// O(active spans + one tombstone per finished broadcast) state — never the
// full trace. It is incarnation-aware: wire churn lifecycle transitions in
// via NodeDown/NodeRestarted (e.g. from churn.InjectorConfig.OnDown/OnUp)
// and restarted nodes may legitimately reuse MsgIDs.
//
// Monitoring never perturbs the execution: the monitor only reads the
// trace, so fingerprints are byte-identical with and without it.
type Monitor struct {
	cfg MonitorConfig
	n   int

	seen  int // next unconsumed trace index
	round int // current round (set in BeforeRound)

	active     map[sim.MsgID]*mspan
	retired    map[sim.MsgID][]retiredSpan
	justClosed []*mspan
	free       []*mspan

	deadlines []deadlineEntry
	dlHead    int

	// Lifecycle state from NodeDown/NodeRestarted.
	downNow     []bool
	lastRestart []int32
	incarn      []int32

	// Progress phase state; the phase covering rounds
	// [phaseStart, phaseEnd] is evaluated at AfterRound(phaseEnd).
	phaseStart, phaseEnd int
	openCount            []int32 // open spans per node
	covering             []int32 // spans covering the whole current phase so far
	heardPhase           []bool
	downPhase            []bool

	broadcasts        int
	reliableSuccesses int
	progressOpps      int
	progressSucc      int
	oppsByNode        []int
	succByNode        []int
	ackLat            []int
	firstRecvLat      []int

	violations []Violation
	totalViol  int
}

// NewMonitor validates the configuration and returns a monitor ready to be
// passed as the engine's environment.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if cfg.Dual == nil || cfg.Trace == nil {
		return nil, fmt.Errorf("lbspec: monitor needs a dual graph and a trace")
	}
	if cfg.TAck <= 0 {
		return nil, fmt.Errorf("lbspec: monitor needs a positive TAck, got %d", cfg.TAck)
	}
	n := cfg.Dual.N()
	m := &Monitor{
		cfg:         cfg,
		n:           n,
		active:      make(map[sim.MsgID]*mspan),
		retired:     make(map[sim.MsgID][]retiredSpan),
		downNow:     make([]bool, n),
		lastRestart: make([]int32, n),
		incarn:      make([]int32, n),
		openCount:   make([]int32, n),
		covering:    make([]int32, n),
		heardPhase:  make([]bool, n),
		downPhase:   make([]bool, n),
		oppsByNode:  make([]int, n),
		succByNode:  make([]int, n),
	}
	if cfg.TProg > 0 {
		m.phaseStart, m.phaseEnd = 1, cfg.TProg
	}
	return m, nil
}

// BeforeRound implements sim.Environment.
func (m *Monitor) BeforeRound(t int) {
	m.round = t
	if m.cfg.Inner != nil {
		m.cfg.Inner.BeforeRound(t)
	}
}

// AfterRound implements sim.Environment: the engine has drained every
// event of round t into the trace by now, so consume the tail, settle the
// round's completions, expire acknowledgement deadlines, and close the
// progress phase if t ends one.
func (m *Monitor) AfterRound(t int) {
	if m.cfg.Inner != nil {
		m.cfg.Inner.AfterRound(t)
	}
	tr := m.cfg.Trace
	for i := m.seen; i < tr.Len(); i++ {
		m.consume(tr.At(i))
	}
	m.seen = tr.Len()
	m.settleClosed()
	m.sweepDeadlines(t)
	if m.cfg.TProg > 0 && t == m.phaseEnd {
		m.evalPhase()
		m.resetPhase()
	}
	if m.cfg.DiscardConsumed {
		tr.DiscardBefore(m.seen)
	}
}

// NodeDown records a crash/leave taking effect at the start of round t:
// the node's open spans are excused (truncated to t−1) and it cannot earn
// progress opportunities for the rest of the current phase. Wire it to
// churn.InjectorConfig.OnDown.
func (m *Monitor) NodeDown(t, u int) {
	if u < 0 || u >= m.n {
		return
	}
	m.downNow[u] = true
	m.downPhase[u] = true
	for _, sp := range m.active {
		if int(sp.node) != u || sp.closed {
			continue
		}
		sp.closed = true
		sp.excused = true
		sp.end = int32(t - 1)
		m.justClosed = append(m.justClosed, sp)
		m.closeAccounting(sp)
	}
}

// NodeRestarted records a recover/join taking effect at the start of round
// t: a fresh incarnation of u is running, so u may reuse MsgIDs broadcast
// by earlier incarnations. Wire it to churn.InjectorConfig.OnUp.
func (m *Monitor) NodeRestarted(t, u int) {
	if u < 0 || u >= m.n {
		return
	}
	m.downNow[u] = false
	m.lastRestart[u] = int32(t)
	m.incarn[u]++
}

// TopologyPatched marks a Dual.PatchNode having rewritten the adjacency
// the monitor reads. Validity and progress read the live graph on demand
// and reliability neighborhoods are snapshotted per span at bcast time, so
// no monitor state needs rebuilding — the hook exists as the explicit sync
// point (and guards against the one unsupported mutation, a changed node
// count). Wire it to churn.InjectorConfig.OnTopology.
func (m *Monitor) TopologyPatched() error {
	if n := m.cfg.Dual.N(); n != m.n {
		return fmt.Errorf("lbspec: monitor saw node count change %d → %d; rebuild the monitor", m.n, n)
	}
	return nil
}

func (m *Monitor) consume(ev sim.Event) {
	switch ev.Kind {
	case sim.EvBcast:
		m.onBcast(ev)
	case sim.EvAck:
		m.onAck(ev)
	case sim.EvRecv:
		m.onRecvHear(ev, true)
	case sim.EvHear:
		if m.cfg.TProg > 0 && ev.Node >= 0 && ev.Node < m.n {
			m.heardPhase[ev.Node] = true
		}
		m.onRecvHear(ev, false)
	}
}

func (m *Monitor) onBcast(ev sim.Event) {
	if _, open := m.active[ev.MsgID]; open {
		m.violate(ev.Round, ev.Node, InvAckDiscipline, ev.MsgID, "duplicate bcast")
		return
	}
	if insts := m.retired[ev.MsgID]; len(insts) > 0 {
		if prev := insts[len(insts)-1]; ev.Node < 0 || ev.Node >= m.n ||
			m.lastRestart[ev.Node] <= prev.start {
			m.violate(ev.Round, ev.Node, InvAckDiscipline, ev.MsgID, "duplicate bcast")
			return
		}
	}
	sp := m.newSpan(ev)
	m.active[ev.MsgID] = sp
	if u := int(sp.node); u >= 0 && u < m.n {
		m.openCount[u]++
		if m.cfg.TProg > 0 && int(sp.start) <= m.phaseStart {
			sp.covers = true
			m.covering[u]++
		}
	}
	m.deadlines = append(m.deadlines, deadlineEntry{msg: ev.MsgID, start: sp.start})
}

func (m *Monitor) onAck(ev sim.Event) {
	sp, ok := m.active[ev.MsgID]
	if !ok {
		if len(m.retired[ev.MsgID]) > 0 {
			m.violate(ev.Round, ev.Node, InvAckDiscipline, ev.MsgID, "ack of finished span")
		} else {
			m.violate(ev.Round, ev.Node, InvAckDiscipline, ev.MsgID, "ack of never-broadcast message")
		}
		return
	}
	if sp.closed {
		m.violate(ev.Round, ev.Node, InvAckDiscipline, ev.MsgID, "second ack")
		return
	}
	if ev.Node != int(sp.node) {
		m.violate(ev.Round, ev.Node, InvAckDiscipline, ev.MsgID,
			fmt.Sprintf("ack by node %d of broadcast by %d", ev.Node, sp.node))
	}
	sp.closed = true
	sp.end = int32(ev.Round)
	m.justClosed = append(m.justClosed, sp)
	m.closeAccounting(sp)
	if lat := int(sp.end - sp.start); lat > m.cfg.TAck && !sp.deadlineFlagged {
		// Normally the deadline sweep has already flagged this span at
		// round start+TAck; this only fires on traces whose ack events
		// carry stale rounds.
		sp.deadlineFlagged = true
		m.violate(ev.Round, int(sp.node), InvTimelyAck, ev.MsgID,
			fmt.Sprintf("ack after %d rounds > t_ack=%d", lat, m.cfg.TAck))
	}
}

func (m *Monitor) onRecvHear(ev sim.Event, isRecv bool) {
	sp, ok := m.active[ev.MsgID]
	if !ok {
		insts := m.retired[ev.MsgID]
		if len(insts) == 0 {
			m.violate(ev.Round, ev.Node, InvValidity, ev.MsgID, "reception of unknown message")
			return
		}
		ri := insts[len(insts)-1]
		for i := len(insts) - 1; i >= 0; i-- {
			if int(insts[i].start) <= ev.Round {
				ri = insts[i]
				break
			}
		}
		if ev.Round < int(ri.start) || ev.Round > int(ri.end) {
			m.violate(ev.Round, ev.Node, InvValidity, ev.MsgID,
				fmt.Sprintf("reception outside active span [%d,%d]", ri.start, ri.end))
		}
		if !m.cfg.Dual.Gp.HasEdge(ev.Node, int(ri.node)) {
			m.violate(ev.Round, ev.Node, InvValidity, ev.MsgID,
				fmt.Sprintf("reception from non-G′-neighbor %d", ri.node))
		}
		return
	}
	if ev.Round < int(sp.start) || (sp.closed && ev.Round > int(sp.end)) {
		end := "…"
		if sp.closed {
			end = fmt.Sprint(sp.end)
		}
		m.violate(ev.Round, ev.Node, InvValidity, ev.MsgID,
			fmt.Sprintf("reception outside active span [%d,%s]", sp.start, end))
	}
	if !m.cfg.Dual.Gp.HasEdge(ev.Node, int(sp.node)) {
		m.violate(ev.Round, ev.Node, InvValidity, ev.MsgID,
			fmt.Sprintf("reception from non-G′-neighbor %d", sp.node))
	}
	if isRecv {
		var incarn int32
		if ev.Node >= 0 && ev.Node < m.n {
			incarn = m.incarn[ev.Node]
		}
		if mark, dup := sp.recv[int32(ev.Node)]; dup {
			if mark.incarn == incarn {
				m.violate(ev.Round, ev.Node, InvValidity, ev.MsgID, "duplicate recv")
			} else {
				mark.incarn = incarn
				sp.recv[int32(ev.Node)] = mark
			}
		} else {
			sp.recv[int32(ev.Node)] = mrecvMark{round: int32(ev.Round), incarn: incarn}
		}
	}
}

// closeAccounting updates the per-node open/covering counters when a span
// stops being active (ack or excusal).
func (m *Monitor) closeAccounting(sp *mspan) {
	u := int(sp.node)
	if u < 0 || u >= m.n {
		return
	}
	m.openCount[u]--
	if m.cfg.TProg > 0 && sp.covers && int(sp.end) < m.phaseEnd {
		m.covering[u]--
	}
}

// settleClosed finishes the round's completed/excused spans once the whole
// round batch is drained — ack-round receptions arrive after the ack event
// when the receiver has a higher node id, and they count.
func (m *Monitor) settleClosed() {
	for _, sp := range m.justClosed {
		if !sp.excused {
			m.broadcasts++
			m.ackLat = append(m.ackLat, int(sp.end-sp.start))
			all, worst := true, 0
			for _, v := range sp.neigh {
				mark, ok := sp.recv[v]
				if !ok || mark.round > sp.end {
					all = false
					break
				}
				if lat := int(mark.round - sp.start); lat > worst {
					worst = lat
				}
			}
			if all {
				m.reliableSuccesses++
				m.firstRecvLat = append(m.firstRecvLat, worst)
			}
		}
		m.retired[sp.msg] = append(m.retired[sp.msg],
			retiredSpan{start: sp.start, end: sp.end, node: sp.node, excused: sp.excused})
		delete(m.active, sp.msg)
		m.recycle(sp)
	}
	m.justClosed = m.justClosed[:0]
}

// sweepDeadlines expires acknowledgement deadlines through round t. Bcast
// rounds are consumed in nondecreasing order, so the queue is a FIFO.
func (m *Monitor) sweepDeadlines(t int) {
	for m.dlHead < len(m.deadlines) {
		e := m.deadlines[m.dlHead]
		if int(e.start)+m.cfg.TAck > t {
			break
		}
		m.dlHead++
		if sp, ok := m.active[e.msg]; ok && sp.start == e.start && !sp.closed {
			sp.deadlineFlagged = true
			m.violate(t, int(sp.node), InvTimelyAck, e.msg,
				fmt.Sprintf("no ack within t_ack=%d (bcast at %d)", m.cfg.TAck, sp.start))
		}
	}
	if m.dlHead > 64 && m.dlHead*2 >= len(m.deadlines) {
		n := copy(m.deadlines, m.deadlines[m.dlHead:])
		m.deadlines = m.deadlines[:n]
		m.dlHead = 0
	}
}

// evalPhase scores the progress grid for the phase ending now.
func (m *Monitor) evalPhase() {
	g := m.cfg.Dual.G
	for w := 0; w < m.n; w++ {
		if m.downPhase[w] {
			continue
		}
		opportunity := false
		for _, v := range g.Neighbors(w) {
			if m.covering[v] > 0 {
				opportunity = true
				break
			}
		}
		if !opportunity {
			continue
		}
		m.progressOpps++
		m.oppsByNode[w]++
		if m.heardPhase[w] {
			m.progressSucc++
			m.succByNode[w]++
		}
	}
}

// resetPhase opens the next phase: every still-open span covers it from
// the start, nodes currently down are marked absent for the whole phase.
func (m *Monitor) resetPhase() {
	m.phaseStart = m.phaseEnd + 1
	m.phaseEnd += m.cfg.TProg
	copy(m.covering, m.openCount)
	for _, sp := range m.active {
		sp.covers = true
	}
	for i := range m.heardPhase {
		m.heardPhase[i] = false
		m.downPhase[i] = m.downNow[i]
	}
}

func (m *Monitor) newSpan(ev sim.Event) *mspan {
	var sp *mspan
	if n := len(m.free); n > 0 {
		sp = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		sp = &mspan{recv: make(map[int32]mrecvMark, 8)}
	}
	sp.msg = ev.MsgID
	sp.node = int32(ev.Node)
	sp.start = int32(ev.Round)
	sp.end = 0
	sp.closed, sp.excused, sp.deadlineFlagged, sp.covers = false, false, false, false
	if ev.Node >= 0 && ev.Node < m.n {
		sp.neigh = append(sp.neigh[:0], m.cfg.Dual.G.Neighbors(ev.Node)...)
	} else {
		sp.neigh = sp.neigh[:0]
	}
	return sp
}

func (m *Monitor) recycle(sp *mspan) {
	clear(sp.recv)
	sp.neigh = sp.neigh[:0]
	m.free = append(m.free, sp)
}

func (m *Monitor) violate(round, node int, invariant string, msg sim.MsgID, detail string) {
	v := Violation{Round: round, Node: node, Invariant: invariant, Msg: msg, Detail: detail}
	m.totalViol++
	if len(m.violations) < MaxViolations {
		m.violations = append(m.violations, v)
	}
}

// Violations returns the retained violation records in observation order:
// the first MaxViolations observed.
func (m *Monitor) Violations() []Violation { return m.violations }

// TotalViolations returns the number of violations observed, including any
// past the retention cap.
func (m *Monitor) TotalViolations() int { return m.totalViol }

// Report assembles the statistics observed so far. Latency slices are in
// completion order. Violations holds at most MaxViolations records; use
// TotalViolations for the full count.
func (m *Monitor) Report() *Report {
	rep := &Report{
		Broadcasts:            m.broadcasts,
		ReliableSuccesses:     m.reliableSuccesses,
		ProgressOpportunities: m.progressOpps,
		ProgressSuccesses:     m.progressSucc,
		OppsByNode:            append([]int(nil), m.oppsByNode...),
		SuccByNode:            append([]int(nil), m.succByNode...),
		AckLatencies:          append([]int(nil), m.ackLat...),
		FirstRecvLatencies:    append([]int(nil), m.firstRecvLat...),
	}
	for _, v := range m.violations {
		rep.Violations = append(rep.Violations, v.String())
	}
	return rep
}

var _ sim.Environment = (*Monitor)(nil)
