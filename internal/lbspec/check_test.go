package lbspec

// The post-hoc checker: a second, independent reading of the LB
// specification over a complete trace. Production code judges runs with
// the online Monitor; these tests hold the Monitor to this oracle in
// lockstep (monitor_test.go) and pin the oracle's own verdicts on crafted
// traces (lbspec_test.go).

import (
	"fmt"
	"sort"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sim"
)

// Span is one active-broadcast interval of a node: from the round of the
// bcast input through the round whose end carried the ack output. An
// unacknowledged broadcast at trace end has End = trace.RoundsRun and
// Completed = false. Under churn a MsgID can name several spans — one per
// incarnation of the source — and a span interrupted by a crash or leave is
// Excused: truncated to the last round its node was up and exempted from
// the acknowledgement deadline.
type Span struct {
	Msg       sim.MsgID
	Node      int
	Start     int
	End       int
	Completed bool
	Excused   bool
}

// NodeRound names a lifecycle transition taking effect at the start of one
// round.
type NodeRound struct {
	Round int
	Node  int
}

// Options carries an execution's churn history into CheckChurned. Both
// lists must be in nondecreasing Round order (the canonical churn.Plan
// order). The zero Options means a static execution: every lifecycle
// allowance is disabled and CheckChurned degenerates to Check.
type Options struct {
	// Downs are crash/leave transitions: the node neither transmits nor
	// listens from Round on (the injector silences it in BeforeRound).
	// A down excuses the node's unacknowledged span — unless the ack
	// deadline had already expired while the node was still up, which
	// remains a Timely Acknowledgement violation.
	Downs []NodeRound
	// Restarts are recover/join transitions: a fresh incarnation of the
	// node begins at the start of Round. Because a fresh incarnation's
	// per-source sequence numbers restart, a re-broadcast of an
	// already-seen MsgID is legitimate iff a restart of the broadcaster
	// lies between the previous span's start and the new bcast.
	Restarts []NodeRound
}

// Check verifies the trace of a static (churn-free) execution over the
// given dual graph against LB(tack, tprog, ·).
func Check(d *dualgraph.Dual, tr *sim.Trace, tack, tprog int) *Report {
	return CheckChurned(d, tr, tack, tprog, Options{})
}

// CheckChurned verifies a trace recorded under the churn layer: spans are
// keyed per (node, incarnation) so restarted nodes that reuse MsgIDs are
// not miscounted, downs excuse interrupted spans, and nodes absent during
// a phase generate no progress opportunities. The dual graph is read as it
// stands at call time; executions whose topology was patched mid-run
// (leave/join) are only checkable online — use Monitor, which snapshots
// neighborhoods as it goes.
func CheckChurned(d *dualgraph.Dual, tr *sim.Trace, tack, tprog int, opts Options) *Report {
	rep := &Report{
		OppsByNode: make([]int, d.N()),
		SuccByNode: make([]int, d.N()),
	}

	ci := buildChurnIndex(opts)
	spans := collectSpans(tr, ci, rep)
	checkTimelyAck(tr, spans, tack, rep)
	checkValidityAndReliability(d, tr, spans, ci, rep)
	checkProgress(d, tr, spans, ci, tprog, rep)
	return rep
}

// churnIndex is Options reorganised for per-node queries.
type churnIndex struct {
	downs    map[int][]int
	restarts map[int][]int
}

func buildChurnIndex(opts Options) *churnIndex {
	if len(opts.Downs) == 0 && len(opts.Restarts) == 0 {
		return &churnIndex{}
	}
	ci := &churnIndex{downs: make(map[int][]int), restarts: make(map[int][]int)}
	for _, nr := range opts.Downs {
		ci.downs[nr.Node] = append(ci.downs[nr.Node], nr.Round)
	}
	for _, nr := range opts.Restarts {
		ci.restarts[nr.Node] = append(ci.restarts[nr.Node], nr.Round)
	}
	for _, m := range []map[int][]int{ci.downs, ci.restarts} {
		for _, rs := range m {
			sort.Ints(rs)
		}
	}
	return ci
}

// restartIn reports whether node has a restart r with after < r ≤ by.
func (ci *churnIndex) restartIn(node, after, by int) bool {
	rs := ci.restarts[node]
	i := sort.SearchInts(rs, after+1)
	return i < len(rs) && rs[i] <= by
}

// incarnationAt returns how many restarts of node took effect by round —
// the incarnation a round-t event of the node belongs to.
func (ci *churnIndex) incarnationAt(node, round int) int {
	return sort.SearchInts(ci.restarts[node], round+1)
}

// firstDownAfter returns the node's first down round strictly after start.
func (ci *churnIndex) firstDownAfter(node, start int) (int, bool) {
	ds := ci.downs[node]
	i := sort.SearchInts(ds, start+1)
	if i == len(ds) {
		return 0, false
	}
	return ds[i], true
}

// downOverlaps reports whether the node was down during any round of
// [s, e]: a down at round d covers [d, u−1] where u is the node's first
// restart after d (or forever if it never restarts).
func (ci *churnIndex) downOverlaps(node, s, e int) bool {
	ds := ci.downs[node]
	rs := ci.restarts[node]
	for _, d := range ds {
		if d > e {
			break
		}
		i := sort.SearchInts(rs, d+1)
		if i == len(rs) || rs[i] > s {
			return true
		}
	}
	return false
}

// spanSet indexes the span instances of a trace per MsgID in start order.
type spanSet struct {
	byMsg   map[sim.MsgID][]*Span
	ordered []*Span // bcast order
}

// resolve returns the instance with the greatest Start ≤ round; events
// predating every instance resolve to the first one (and are then flagged
// as outside its active span). Nil means the MsgID was never broadcast.
func (ss *spanSet) resolve(msg sim.MsgID, round int) *Span {
	list := ss.byMsg[msg]
	if len(list) == 0 {
		return nil
	}
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].Start <= round {
			return list[i]
		}
	}
	return list[0]
}

// collectSpans pairs bcast and ack events into span instances, allowing a
// MsgID to recur across incarnations, then excuses spans interrupted by a
// down.
func collectSpans(tr *sim.Trace, ci *churnIndex, rep *Report) *spanSet {
	spans := &spanSet{byMsg: make(map[sim.MsgID][]*Span)}
	for ev := range tr.Events() {
		switch ev.Kind {
		case sim.EvBcast:
			list := spans.byMsg[ev.MsgID]
			if len(list) > 0 && !ci.restartIn(ev.Node, list[len(list)-1].Start, ev.Round) {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("duplicate bcast of %v", ev.MsgID))
				continue
			}
			sp := &Span{Msg: ev.MsgID, Node: ev.Node, Start: ev.Round, End: tr.RoundsRun}
			spans.byMsg[ev.MsgID] = append(list, sp)
			spans.ordered = append(spans.ordered, sp)
		case sim.EvAck:
			list := spans.byMsg[ev.MsgID]
			if len(list) == 0 {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("ack of never-broadcast %v at round %d", ev.MsgID, ev.Round))
				continue
			}
			sp := list[len(list)-1]
			if sp.Completed {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("second ack of %v at round %d", ev.MsgID, ev.Round))
				continue
			}
			if ev.Node != sp.Node {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("ack of %v by node %d, broadcast by %d", ev.MsgID, ev.Node, sp.Node))
			}
			sp.End = ev.Round
			sp.Completed = true
		}
	}
	// A crash or leave truncates the node's in-flight span: it stops
	// transmitting at the down round, so the span's active window ends the
	// round before, and the acknowledgement deadline is excused (timely-ack
	// handling decides whether the deadline had already expired).
	for _, sp := range spans.ordered {
		if sp.Completed {
			continue
		}
		if r, ok := ci.firstDownAfter(sp.Node, sp.Start); ok && r <= tr.RoundsRun {
			sp.Excused = true
			sp.End = r - 1
		}
	}
	return spans
}

// checkTimelyAck enforces the deterministic acknowledgement deadline for
// every broadcast whose deadline lies within the executed rounds.
func checkTimelyAck(tr *sim.Trace, spans *spanSet, tack int, rep *Report) {
	for _, sp := range spans.ordered {
		if sp.Completed {
			rep.Broadcasts++
			lat := sp.End - sp.Start
			rep.AckLatencies = append(rep.AckLatencies, lat)
			if lat > tack {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("ack of %v after %d rounds > t_ack=%d", sp.Msg, lat, tack))
			}
			continue
		}
		if sp.Excused && sp.End+1 <= sp.Start+tack {
			// Went down before the deadline: no ack was owed.
			continue
		}
		if sp.Start+tack <= tr.RoundsRun {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("no ack of %v within t_ack=%d (bcast at %d, ran %d rounds)",
					sp.Msg, tack, sp.Start, tr.RoundsRun))
		}
	}
}

// recvMark is the per-(span, receiver) reception record: the first recv
// round (what reliability consults) and the receiver incarnation of the
// latest recv (what duplicate detection consults — a restarted receiver
// loses its dedup state and legitimately re-delivers an active message).
type recvMark struct {
	round, incarn int
}

// checkValidityAndReliability walks recv events once for both conditions.
func checkValidityAndReliability(d *dualgraph.Dual, tr *sim.Trace, spans *spanSet, ci *churnIndex, rep *Report) {
	// recvRound[sp][node] = reception record of the span instance at node.
	recvRound := make(map[*Span]map[int]recvMark)
	for ev := range tr.Events() {
		if ev.Kind != sim.EvRecv && ev.Kind != sim.EvHear {
			continue
		}
		sp := spans.resolve(ev.MsgID, ev.Round)
		if sp == nil {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%v of unknown message %v at node %d", ev.Kind, ev.MsgID, ev.Node))
			continue
		}
		// Validity: the broadcaster must be a G′ neighbor actively
		// broadcasting the message in this round.
		if ev.Round < sp.Start || ev.Round > sp.End {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%v of %v at node %d in round %d outside active span [%d,%d]",
					ev.Kind, ev.MsgID, ev.Node, ev.Round, sp.Start, sp.End))
		}
		if !d.Gp.HasEdge(ev.Node, sp.Node) {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%v of %v at node %d from non-G′-neighbor %d",
					ev.Kind, ev.MsgID, ev.Node, sp.Node))
		}
		if ev.Kind == sim.EvRecv {
			m, ok := recvRound[sp]
			if !ok {
				m = make(map[int]recvMark)
				recvRound[sp] = m
			}
			incarn := ci.incarnationAt(ev.Node, ev.Round)
			if mark, dup := m[ev.Node]; dup {
				if mark.incarn == incarn {
					rep.Violations = append(rep.Violations,
						fmt.Sprintf("duplicate recv of %v at node %d", ev.MsgID, ev.Node))
				} else {
					mark.incarn = incarn
					m[ev.Node] = mark
				}
			} else {
				m[ev.Node] = recvMark{round: ev.Round, incarn: incarn}
			}
		}
	}

	// Reliability over completed broadcasts.
	for _, sp := range spans.ordered {
		if !sp.Completed {
			continue
		}
		got := recvRound[sp]
		allBefore := true
		worst := 0
		for _, v := range d.G.Neighbors(sp.Node) {
			mark, ok := got[int(v)]
			if !ok || mark.round > sp.End {
				allBefore = false
				break
			}
			if lat := mark.round - sp.Start; lat > worst {
				worst = lat
			}
		}
		if allBefore {
			rep.ReliableSuccesses++
			rep.FirstRecvLatencies = append(rep.FirstRecvLatencies, worst)
		}
	}
}

// checkProgress evaluates the (node, phase) progress grid: phases are the
// consecutive t_prog-round windows from round 1. Nodes down during any part
// of a phase cannot listen and generate no opportunity.
func checkProgress(d *dualgraph.Dual, tr *sim.Trace, spans *spanSet, ci *churnIndex, tprog int, rep *Report) {
	if tprog <= 0 || tr.RoundsRun < tprog {
		return
	}
	numPhases := tr.RoundsRun / tprog

	// spansByNode[v] = v's span instances.
	spansByNode := make(map[int][]*Span)
	for _, sp := range spans.ordered {
		spansByNode[sp.Node] = append(spansByNode[sp.Node], sp)
	}
	// activeAll[v][i] = v active throughout phase i (1-based).
	activeAll := make(map[int][]bool)
	for v, list := range spansByNode {
		flags := make([]bool, numPhases+1)
		for _, sp := range list {
			// Unacknowledged spans only count while genuinely active;
			// End is clamped to RoundsRun already (and to the down round
			// for excused spans).
			for i := 1; i <= numPhases; i++ {
				s, e := (i-1)*tprog+1, i*tprog
				if sp.Start <= s && sp.End >= e {
					flags[i] = true
				}
			}
		}
		activeAll[v] = flags
	}

	// heard[u][i] = u heard some active message in phase i.
	heard := make(map[int][]bool)
	for ev := range tr.Events() {
		if ev.Kind != sim.EvHear {
			continue
		}
		i := (ev.Round-1)/tprog + 1
		if i > numPhases {
			continue
		}
		flags, ok := heard[ev.Node]
		if !ok {
			flags = make([]bool, numPhases+1)
			heard[ev.Node] = flags
		}
		flags[i] = true
	}

	for u := 0; u < d.N(); u++ {
		for i := 1; i <= numPhases; i++ {
			if ci.downOverlaps(u, (i-1)*tprog+1, i*tprog) {
				continue
			}
			opportunity := false
			for _, v := range d.G.Neighbors(u) {
				if flags, ok := activeAll[int(v)]; ok && flags[i] {
					opportunity = true
					break
				}
			}
			if !opportunity {
				continue
			}
			rep.ProgressOpportunities++
			rep.OppsByNode[u]++
			if flags, ok := heard[u]; ok && flags[i] {
				rep.ProgressSuccesses++
				rep.SuccByNode[u]++
			}
		}
	}
}
