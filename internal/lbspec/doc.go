// Package lbspec checks executions against the LB(t_ack, t_prog, ε)
// problem specification of Section 4.1:
//
//   - Timely Acknowledgement (deterministic): every bcast(m)_u is followed
//     by exactly one ack(m)_u within t_ack rounds.
//   - Validity (deterministic): every recv(m)_u happens in a round where
//     some G′ neighbor of u is actively broadcasting m.
//   - Reliability (probabilistic): with probability ≥ 1−ε, every reliable
//     neighbor of a broadcaster receives the message before the ack.
//   - Progress (probabilistic): with probability ≥ 1−ε, a node whose
//     reliable neighbor is active throughout a t_prog-round phase receives
//     at least one message during that phase.
//
// The two deterministic conditions must hold with zero violations in every
// trace; the probabilistic ones are estimated as success rates over
// (broadcast) and (node, phase) populations respectively.
//
// The package has one checker, the online Monitor: it runs as the engine's
// environment, consumes the trace round by round and assembles a Report.
// A post-hoc pass over the complete trace lives in the package's tests,
// where it is the oracle the Monitor is compared against in lockstep.
package lbspec
