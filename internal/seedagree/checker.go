package seedagree

import (
	"fmt"

	"lbcast/internal/dualgraph"
	"lbcast/internal/xrand"
)

// The functions in this file check executions against the four conditions of
// the Seed(δ, ε) specification (Section 3.1): well-formedness, consistency,
// agreement, and (statistically) independence.

// CollectDecisions gathers one decision per standalone process, enforcing
// well-formedness condition 1: exactly one decide(∗,∗)_u per vertex. (The
// state machine cannot decide twice, so presence is the checkable half.)
func CollectDecisions(procs []*Process) ([]Decision, error) {
	out := make([]Decision, len(procs))
	for u, p := range procs {
		if !p.Decided() {
			return nil, fmt.Errorf("seedagree: node %d never decided (well-formedness violated)", u)
		}
		out[u] = p.Decision()
	}
	return out, nil
}

// CheckConsistency verifies condition 2: decisions naming the same owner
// carry the same seed value.
func CheckConsistency(ds []Decision) error {
	seeds := make(map[int]xrand.Seed, len(ds))
	for u, d := range ds {
		if d.Seed.Len() == 0 {
			return fmt.Errorf("seedagree: node %d committed an empty seed", u)
		}
		if prev, ok := seeds[d.Owner]; ok {
			if prev != d.Seed {
				return fmt.Errorf("seedagree: owner %d committed with two distinct seeds", d.Owner)
			}
			continue
		}
		seeds[d.Owner] = d.Seed
	}
	return nil
}

// CheckOwnership verifies the Lemma B.1 structure: every committed seed is
// the initial seed of its owner, and owners are real vertices.
func CheckOwnership(ds []Decision, initial map[int]xrand.Seed) error {
	for u, d := range ds {
		own, ok := initial[d.Owner]
		if !ok {
			return fmt.Errorf("seedagree: node %d committed to unknown owner %d", u, d.Owner)
		}
		if own != d.Seed {
			return fmt.Errorf("seedagree: node %d committed a seed that is not owner %d's initial seed", u, d.Owner)
		}
	}
	return nil
}

// OwnerCount returns the number of distinct seed owners committed among
// N_G′(u) ∪ {u} — the quantity the agreement condition bounds by δ.
func OwnerCount(d *dualgraph.Dual, ds []Decision, u int) int {
	owners := map[int]struct{}{ds[u].Owner: {}}
	for _, v := range d.Gp.Neighbors(u) {
		owners[ds[v].Owner] = struct{}{}
	}
	return len(owners)
}

// MaxOwnerCount returns the worst OwnerCount over all vertices and a vertex
// attaining it. For an empty graph it returns (0, -1).
func MaxOwnerCount(d *dualgraph.Dual, ds []Decision) (maxOwners, argmax int) {
	maxOwners, argmax = 0, -1
	for u := 0; u < d.N(); u++ {
		if c := OwnerCount(d, ds, u); c > maxOwners {
			maxOwners, argmax = c, u
		}
	}
	return maxOwners, argmax
}

// AgreementHolds reports the event B_{u,δ}: at most delta distinct owners
// appear in decide outputs within N_G′(u) ∪ {u}.
func AgreementHolds(d *dualgraph.Dual, ds []Decision, u, delta int) bool {
	return OwnerCount(d, ds, u) <= delta
}

// OwnerSeeds returns the distinct owners' committed seed values, for the
// statistical independence checks of the E-SEED-SPEC experiment.
func OwnerSeeds(ds []Decision) map[int]xrand.Seed {
	out := make(map[int]xrand.Seed)
	for _, d := range ds {
		out[d.Owner] = d.Seed
	}
	return out
}
