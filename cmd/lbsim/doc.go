// Command lbsim runs one local broadcast configuration and prints a
// specification report: deterministic condition violations, reliability and
// progress rates, latency quantiles and channel statistics.
//
// Usage:
//
//	lbsim -topo cluster -n 16 -eps 0.1 -sched random -phases 8
//	lbsim -exp comparison -size small -out comparison.json
//
// The first form assembles a dual graph topology, runs LBAlg on every node
// under the chosen link scheduler, and judges the execution against the
// LB(t_ack, t_prog, ε) specification with the online lbspec.Monitor as it
// runs; it exits non-zero on any deterministic violation.
//
// The second form runs the comparison subsystem instead: LBAlg vs the SINR
// local broadcast layer vs the GHLN contention baselines, head to head over
// the scaling-sweep topologies, rendering the comparison table and writing
// the machine-readable JSON report (schema lbcast-comparison/v2, see
// docs/EXPERIMENTS.md).
//
// Every mode takes -cpuprofile and -memprofile, which write a CPU profile
// of the run and a heap profile at its end for go tool pprof.
package main
