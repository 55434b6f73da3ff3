// Package world is the lockstep multi-policy comparison harness: a registry
// of local-broadcast policies (LBAlg, the GHLN contention baselines, decay,
// the SINR layer variants) and a World that runs every selected policy on
// an identical cloned topology under identical fault/load/arrival streams,
// one shared clock per sweep invocation.
//
// The pieces:
//
//   - Policy (registry.go) names a contender and carries the factory that
//     instantiates it over a Topology: a core.Service set, an optional
//     reception model, the policy's scheduler requirement, its reliability
//     neighbor sets and its acknowledgement-window formula. Register wires a
//     policy into the registry (duplicate names panic); Select resolves
//     user-facing name lists with an error that enumerates the valid set.
//
//   - Instance (world.go) is a policy instantiated over a Topology: its
//     acknowledgement window, reception model, neighbor sets and node
//     factories. NewService builds one node's service; lbalg also has
//     NewBank, which builds all n nodes as one core.NodeStateBank that
//     records the events Summarize reads. Instance.Services builds an
//     engine's nodes through the bank where there is one, so E-COMPARE and
//     E-LOAD run lbalg banked; E-CHURN restarts nodes, which a bank
//     refuses, and calls NewService.
//
//   - NewLBNetwork (lbnetwork.go) is the one assembly of every LBAlg
//     deployment whose nodes never restart: a state bank over one shared
//     phase plan, stepped through sim.Config.Bank, monitored by an
//     lbspec.Monitor when the run is judged. The experiments outside the
//     matrices, lbsim's single run, lbviz and the examples build through it.
//
//   - Topology (world.go) is the common ground: one dual graph plus the
//     derived Δ/Δ′ and the (seed, ε) every policy's parameters come from.
//     NewSweepTopology builds the constant-density random-geometric family
//     all comparison experiments share, and Topology.Clone rebuilds a
//     structurally identical private instance for runs that mutate the
//     graph (churn's leave/join patches).
//
//   - World (world.go) runs one engine per selected policy: construction and
//     summarizing are sequential in selection order (so reports are
//     byte-identical at any worker count), the engines themselves run
//     concurrently on sim.RunFleet — each policy's engine is independent,
//     so the comparison matrices parallelize for free.
//
//   - Summarize (summary.go) is the shared per-incarnation metric extraction
//     every experiment row goes through: ack latency, first-recv progress,
//     reliability over the policy's own neighbor notion, and the channel
//     counters. SummarizeLoad is the open-loop counterpart over
//     workload.Metrics.
//
// Experiments select policies by name (lbsim/lbbench -policies), so a new
// contender registered here — a mobility layer, the MMB stack — becomes a
// column of E-COMPARE, E-CHURN and E-LOAD without touching their matrices.
package world
