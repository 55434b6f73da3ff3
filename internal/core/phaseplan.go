package core

import (
	"lbcast/internal/seedagree"
	"lbcast/internal/xrand"
)

// This file is the phase-schedule subsystem. LBAlg's control flow is fully
// phase-deterministic: a phase that runs the seed agreement preamble is Ts
// preamble rounds followed by Tprog body rounds, and a phase that skips it
// (the Section 4.2 variant) is all body rounds, so the per-round work in
// Transmit/Receive needs only the phase's preamble length. The
// committed-seed coin stream is decoded once per phase into a scratch
// buffer (phaseCoins) in one word-level pass instead of two cursor-checked
// bit reads per node per round.
//
// The decode changes when coins are read, never which bits feed which
// decision: it walks the committed seed in exactly the order the paper's
// per-round body logic consumes it, so traces and coin sequences stay
// byte-identical (pinned by golden_test.go and phaseplan_test.go).

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

	// Seed is the shared schedule plan of the per-phase seed agreement
	// preambles.
	Seed *seedagree.Plan
}

// NewPhasePlan resolves the phase schedule of p. Params must come from
// DeriveParams (or be equivalently consistent: PhaseLen = Ts + Tprog,
// positive lengths).
func NewPhasePlan(p Params) *PhasePlan {
	return &PhasePlan{
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
}

// RunsPreamble reports whether seed agreement runs in the given 1-based
// phase (always true for the paper's algorithm; every k-th phase under the
// Section 4.2 ablation).
func (pl *PhasePlan) RunsPreamble(phase int) bool {
	return pl.alwaysPreamble || (phase-1)%pl.seedEvery == 0
}

// preambleLen returns the number of preamble rounds that open the phase:
// Ts for preamble phases, 0 for skipped-preamble phases. Body rounds sit at
// positions ≥ it, with coin index pos − preambleLen.
func (pl *PhasePlan) preambleLen(phase int) int {
	if pl.RunsPreamble(phase) {
		return pl.ts
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
// incremental per-round reads would have: K1 participation bits per
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
