// Package workload is the open-loop traffic engine: it drives the local
// broadcast layer like a service under offered load instead of a protocol
// under a closed-loop experiment.
//
// An arrival Plan — expanded fully before the run from seeded per-node
// xrand streams (Poisson, bursty MMPP, or a diurnal rate curve), with the
// same N-independence discipline as churn.Plan — feeds per-node bounded
// queues with drop/backpressure accounting. The Traffic environment (the
// churn.Injector wrapper pattern over sim.Environment) delivers arrivals,
// dispatches the head of every idle queue as a Bcast through any
// core.Service, and folds completions into service-style Metrics:
// streaming p50/p99/p999 ack-latency quantiles (fixed-bin stats.Histogram),
// goodput, drops and the queue-depth trajectory — all accumulated on the
// single-threaded environment path so they are byte-identical across
// engine drivers and worker counts.
//
// Preset scenarios ("iot-telemetry", "alarm-flood", "gossip-storm") bundle
// a generator with a queue discipline.
// The E-LOAD experiment (internal/exp, `lbsim -exp load`) sweeps offered
// load across protocol contenders over this engine to produce the
// throughput/latency knee curves.
package workload
