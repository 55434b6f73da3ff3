// Package baseline implements the algorithms the paper positions LBAlg
// against:
//
//   - Decay (Bar-Yehuda, Goldreich, Itai [2]): the classical fixed schedule
//     of geometrically decreasing broadcast probabilities. Its fixed,
//     globally known schedule is exactly what the paper's introduction shows
//     an oblivious link scheduler can exploit (see sched.AntiDecay).
//   - Round-robin TDMA (Clementi, Monti, Silvestri [4]): collision-free
//     id-indexed slots. Optimal for fault-tolerant broadcast but inherently
//     global — its latency scales with the slot count, not local degree —
//     making it the locality counterpoint in the E-LOWER experiments.
//   - Chatter: a non-protocol noise source: adversary decoys and E-SINR's
//     contending senders.
//
// Decay and RoundRobin implement core.Service, so environments, the lbspec
// checker, and the experiment harness treat them exactly like LBAlg.
package baseline
