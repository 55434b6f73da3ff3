// Package churn is the deterministic fault-injection layer: it compiles
// seeded fault models into explicit per-round schedules (Plan) and replays
// them against a running engine through the sim.Environment hook (Injector).
//
// The package drives two kinds of faults:
//
//   - Node lifecycle: crash (radio down, protocol state frozen), recover
//     (radio up, protocol restarted from scratch under a fresh incarnation
//     RNG), graceful leave (node detached from the dual graph) and join
//     (node re-attached at its original position). Crashes use the engine's
//     SetDown/ReplaceProc lifecycle hooks; leaves and joins patch the dual
//     graph incrementally (dualgraph.Dual.PatchNode + geo.GridIndex
//     Insert/Delete) and re-sync every topology consumer through
//     Engine.RefreshTopology and the injector's OnTopology callback.
//
//   - Region-level fading: during a fade epoch every unreliable edge with an
//     endpoint in a faded grid region is forced out of the communication
//     graph (FadeScheduler). In the dual-graph model the adversary's power
//     is exactly the grey-zone edge set E′∖E, so fading expresses as forced
//     exclusion layered over the run's base link scheduler; reliable edges
//     are untouched, as the model guarantees.
//
// Everything is deterministic: the Poisson generator expands a
// seed into a sorted event list once, before the run, and the injector
// applies events between rounds — so a churned execution is as replayable
// as a churn-free one, and bit-identical across engine drivers and worker
// counts (TestChurnSoak pins this).
package churn
