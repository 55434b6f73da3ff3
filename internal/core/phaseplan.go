package core

import (
	"lbcast/internal/seedagree"
	"lbcast/internal/xrand"
)

// This file is the phase-schedule subsystem. LBAlg's control flow is fully
// phase-deterministic: which positions of a phase are preamble slots and
// which are body rounds, and how many committed-seed bits a body round may
// consume, are pure functions of Params. The PhasePlan resolves that
// schedule once per configuration into per-position tables shared by every
// node, so the per-node-per-round work in Transmit/Receive collapses to a
// slot lookup — and the committed-seed coin stream is decoded once per
// phase into a scratch buffer (phaseCoins) in one word-level pass instead
// of two cursor-checked bit reads per node per round.
//
// The plan changes when coins are decoded, never which bits feed which
// decision: the decode walks the committed seed in exactly the order the
// incremental bodyRound logic consumed it, so traces and coin sequences
// stay byte-identical (pinned by golden_test.go and phaseplan_test.go).

// RoundKind classifies one position within a phase.
type RoundKind uint8

const (
	// RoundPreamble positions run the seed agreement protocol.
	RoundPreamble RoundKind = iota
	// RoundBody positions run the shared-coin body round logic.
	RoundBody
)

// Slot describes one position of a phase: its kind, the index of the body
// round within the phase's decoded coin scratch (-1 for preamble slots),
// and the worst-case number of committed-seed bits the round consumes
// (K1+K2 for body slots, 0 for preamble slots).
type Slot struct {
	Kind       RoundKind
	Body       int32
	CoinBudget int16
}

// PhasePlan is the precomputed LBAlg schedule for one Params value. It is
// read-only after construction, so one plan serves every node of a run
// (NewLBAlgWithPlan); it also carries the shared seedagree.Plan for the
// per-phase preambles.
type PhasePlan struct {
	params   Params
	phaseLen int
	ts       int
	tprog    int
	k1, k2   int
	logDelta int
	// seedEvery is Params.SeedEveryKPhases; alwaysPreamble short-circuits
	// the per-phase modulo for the paper's k = 1 schedule.
	seedEvery      int
	alwaysPreamble bool

	// preamble holds the slots of a phase that runs the seed agreement
	// preamble (positions [0, Ts) preamble, [Ts, phaseLen) body); bodyOnly
	// holds the slots of a skipped-preamble phase under the Section 4.2
	// variant (every position a body round). bodyOnly is nil when k = 1.
	// preambleCut is the number of leading RoundPreamble slots in
	// `preamble`, counted off the built table — the scalar the per-round
	// hot path compares against instead of loading slots.
	preamble    []Slot
	bodyOnly    []Slot
	preambleCut int

	// Seed is the shared schedule plan of the per-phase seed agreement
	// preambles.
	Seed *seedagree.Plan
}

// NewPhasePlan resolves the phase schedule of p into lookup tables. Params
// must come from DeriveParams (or be equivalently consistent: PhaseLen =
// Ts + Tprog, positive lengths).
func NewPhasePlan(p Params) *PhasePlan {
	pl := &PhasePlan{
		params:         p,
		phaseLen:       p.PhaseLen(),
		ts:             p.Ts,
		tprog:          p.Tprog,
		k1:             p.K1,
		k2:             p.K2,
		logDelta:       p.LogDelta,
		seedEvery:      p.SeedEveryKPhases,
		alwaysPreamble: p.SeedEveryKPhases <= 1,
		Seed:           seedagree.NewPlan(p.SeedParams),
	}
	pl.preamble = make([]Slot, pl.phaseLen)
	for pos := range pl.preamble {
		if pos < pl.ts {
			pl.preamble[pos] = Slot{Kind: RoundPreamble, Body: -1}
		} else {
			pl.preamble[pos] = Slot{Kind: RoundBody, Body: int32(pos - pl.ts),
				CoinBudget: int16(pl.k1 + pl.k2)}
		}
	}
	if !pl.alwaysPreamble {
		// Section 4.2 variant: skipped preamble slots become body rounds.
		pl.bodyOnly = make([]Slot, pl.phaseLen)
		for pos := range pl.bodyOnly {
			pl.bodyOnly[pos] = Slot{Kind: RoundBody, Body: int32(pos),
				CoinBudget: int16(pl.k1 + pl.k2)}
		}
	}
	for pos := range pl.preamble {
		if pl.preamble[pos].Kind != RoundPreamble {
			break
		}
		pl.preambleCut++
	}
	return pl
}

// PhaseLen returns the full phase length Ts + Tprog.
func (pl *PhasePlan) PhaseLen() int { return pl.phaseLen }

// RunsPreamble reports whether seed agreement runs in the given 1-based
// phase (always true for the paper's algorithm; every k-th phase under the
// Section 4.2 ablation).
func (pl *PhasePlan) RunsPreamble(phase int) bool {
	return pl.alwaysPreamble || (phase-1)%pl.seedEvery == 0
}

// Slots returns the per-position slot table of the given phase.
func (pl *PhasePlan) Slots(phase int) []Slot {
	if pl.RunsPreamble(phase) {
		return pl.preamble
	}
	return pl.bodyOnly
}

// preambleLen returns the phase's preamble cut: the number of leading
// RoundPreamble slots in its table (Ts for preamble phases, 0 for
// skipped-preamble phases). Body slots sit at positions ≥ the cut with
// Body = pos − cut, which is what lets LBAlg cache one int per phase
// instead of touching the table every round.
func (pl *PhasePlan) preambleLen(phase int) int {
	if pl.RunsPreamble(phase) {
		return pl.preambleCut
	}
	return 0
}

// BodyRounds returns how many body rounds the given phase has: Tprog for
// preamble phases, the full phase length for skipped-preamble phases.
func (pl *PhasePlan) BodyRounds(phase int) int {
	if pl.RunsPreamble(phase) {
		return pl.tprog
	}
	return pl.phaseLen
}

// CoinBudget returns the worst-case number of committed-seed bits the given
// phase consumes: Σ Slot.CoinBudget over its positions.
func (pl *PhasePlan) CoinBudget(phase int) int {
	return pl.BodyRounds(phase) * (pl.k1 + pl.k2)
}

// PhaseOf maps a global 1-based round to its 1-based phase and 0-based
// position — the non-incremental fallback behind LBAlg's position cursor.
func (pl *PhasePlan) PhaseOf(t int) (phase, pos int) {
	return (t-1)/pl.phaseLen + 1, (t - 1) % pl.phaseLen
}

// phaseCoins is a node's per-phase scratch of decoded shared coins: entry j
// covers the phase's j-th body round, holding 0 when the round's owner
// group stays silent (non-participant round, short participation coin, or
// an exhausted seed) and the selected probability exponent b ∈ [1, log Δ]
// otherwise. A body round then costs one byte load instead of one or two
// cursor-checked bit reads.
type phaseCoins struct {
	b     []uint8
	valid bool
}

// invalidate drops the scratch when its seed is superseded.
func (c *phaseCoins) invalidate() { c.valid = false }

// reuse sizes the scratch for `rounds` body rounds, growing it only when
// needed, and marks it valid for the decode that fills it.
func (c *phaseCoins) reuse(rounds int) []uint8 {
	if cap(c.b) < rounds {
		c.b = make([]uint8, rounds)
	}
	c.b = c.b[:rounds]
	c.valid = true
	return c.b
}

// decodeCoins decodes len(dst) body rounds' worth of shared coins from seed
// into dst, starting at bit *cur and advancing *cur exactly as len(dst)
// incremental bodyRound executions would have: K1 participation bits per
// round, then K2 selection bits only on participant rounds, with per-field
// exhaustion semantics (a field that does not fit leaves the cursor in
// place and the round silent). The seed's words are regenerated on the
// stack for κ ≤ 4096, so a decode does not allocate.
func (pl *PhasePlan) decodeCoins(seed xrand.Seed, cur *int32, dst []uint8) {
	var buf [64]uint64
	*cur = int32(pl.walkWords(seed.Words(buf[:0]), seed.Len(), int(*cur), dst, len(dst)))
}

// skipCoins advances *cur over `rounds` body rounds' worth of shared coins
// without materialising them — how a node that spent one or more phases of
// a SeedEveryKPhases cycle as a pure receiver catches its cursor up when it
// enters the sending state (the decoded values are never read while
// receiving, but which bits the next phase starts at depends on them).
func (pl *PhasePlan) skipCoins(seed xrand.Seed, cur *int32, rounds int) {
	var buf [64]uint64
	*cur = int32(pl.walkWords(seed.Words(buf[:0]), seed.Len(), int(*cur), nil, rounds))
}

// walkWords is the one coin pass behind every decode: it walks `rounds`
// body rounds' worth of coins over a seed's words (n bits, read-only) from
// bit cursor cur, writes the coin bytes to dst when non-nil, and returns
// the new cursor. Both LBAlg representations reach it through decodeCoins
// and skipCoins with a cursor of their own. Field extraction reads each
// field all-or-nothing — a field that does not fit consumes nothing — so
// the cursor ends where `rounds` incremental bit-field reads would have
// left it, for K2 = 0 too.
// The second-word merge is branch-free: the double shift is well-defined
// at off = 0 (<<1<<63 clears the word) and the i+1 bound check only fails
// in the last word.
func (pl *PhasePlan) walkWords(words []uint64, n, cur int, dst []uint8, rounds int) int {
	k1, k2 := pl.k1, pl.k2
	m1 := uint64(1)<<uint(k1) - 1
	m2 := uint64(1)<<uint(k2) - 1
	logDelta := uint64(pl.logDelta)
	for j := 0; j < rounds; j++ {
		var b uint8
		if n-cur >= k1 { // else: seed exhausted, round fails closed
			var v uint64
			if k1 > 0 {
				i, off := cur>>6, uint(cur)&63
				v = words[i] >> off
				if i+1 < len(words) {
					v |= words[i+1] << 1 << (63 - off)
				}
				v &= m1
				cur += k1
			}
			// v != 0 is a non-participant round for this owner group;
			// participants read their K2 selection bits when they fit.
			if v == 0 && n-cur >= k2 {
				var bv uint64
				if k2 > 0 {
					i, off := cur>>6, uint(cur)&63
					bv = words[i] >> off
					if i+1 < len(words) {
						bv |= words[i+1] << 1 << (63 - off)
					}
					bv &= m2
					cur += k2
				}
				b = uint8(1 + bv%logDelta)
			}
		}
		if dst != nil {
			dst[j] = b
		}
	}
	return cur
}
