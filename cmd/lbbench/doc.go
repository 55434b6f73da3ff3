// Command lbbench runs the experiment suite that reproduces every
// quantitative claim of the paper and prints the docs/EXPERIMENTS.md tables,
// and measures the program's performance.
//
// Usage:
//
//	lbbench [-exp E-PROG[,E-ACK,...]] [-size small|medium|full] [-seed N] [-list]
//	lbbench -sweep [-sweepn 100,1000,10000,100000] [-seed N]
//	lbbench -ab <git-ref>
//
// The first two forms take -cpuprofile and -memprofile, which write a CPU
// profile of the run and a heap profile at its end for go tool pprof; -ab
// rejects them, because its measured runs are child processes.
//
// With -sweep, lbbench builds the public banked stack,
// lbcast.NewRandomGeometric, at constant density for every listed n, runs
// every 100th node in a closed bcast→ack loop, and prints the build time,
// the heap bytes and objects the built network retains per node,
// ns/round, split into preamble and body rounds, allocs/round and peak RSS
// of a sequential row and, when GOMAXPROCS > 1, a worker-pool row.
//
// With -ab, lbbench measures the working tree against <git-ref> on this
// machine. It checks the ref out into a git worktree under .bench_build/,
// then runs 10 interleaved pairs (seeds 1001–1010, alternating which side
// runs first) of every BENCHMARK.json workload through benchmark/run.sh
// and of nine round micro-benchmarks from `go test -c` binaries. After a
// header naming both revisions, the Go version, GOMAXPROCS and the CPU
// model, it prints each metric's medians, the parent's quartile spread, the pairs the change
// won and a verdict, and exits 1 when a metric regressed beyond its bound
// or a change run reported a wrong output or a failed operation. Run it
// from the repository root.
package main
