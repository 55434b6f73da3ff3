// Package sim implements the synchronous execution model of Section 2 of
// the paper: rounds 1, 2, … in which every process first receives inputs
// from the environment, then decides to transmit or receive, then receives
// (subject to the collision rule), and finally emits outputs which the
// environment consumes.
//
// The communication topology of round t is G's reliable edges plus the
// subset of unreliable edges the link scheduler includes for t. Node u
// receives message m from v in round t iff u is receiving, v transmits m,
// and v is the only transmitter among u's neighbors in that topology;
// otherwise u receives the null indicator ⊥ (no collision detection).
//
// Every round takes one path: the transmit and receive phases run as
// contiguous node-range calls on a ProcessBank — Config.Bank, or the
// engine's adapter over per-node Processes. The two drivers only set how
// many workers share the ranges: one (sequential) or a persistent worker
// pool. Per-node deterministic RNG streams make both produce identical
// executions.
package sim
