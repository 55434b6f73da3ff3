package lbcast

import (
	"cmp"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"
)

// bankedFingerprint pins one banked Network execution: the channel
// statistics plus an FNV-1a hash folded over every trace event and every
// OnReceive/OnAck callback, in the order they happened.
type bankedFingerprint struct {
	Rounds, Events, Receives, Acks        int
	Transmissions, Deliveries, Collisions int
	Hash                                  uint64
}

// bankedRun is one driver configuration of the banked golden test. workers
// > 0 sizes the worker pool: the engine takes its default worker count from
// GOMAXPROCS when it is built, so the run builds its network under that
// setting.
type bankedRun struct {
	name    string
	driver  Driver
	workers int
}

var bankedRuns = []bankedRun{
	{"sequential", DriverSequential, 0},
	{"pool-2", DriverWorkerPool, 2},
	{"pool-3", DriverWorkerPool, 3},
	{"pool-7", DriverWorkerPool, 7},
}

// callback is one OnReceive (kind 1) or OnAck (kind 2) output.
type callback struct{ round, node, kind, id, from int64 }

// fingerprinter folds a run's callbacks and trace into one hash. Under the
// worker pool, callbacks of nodes in different ranges run concurrently, so
// each node logs into its own slice and finish merges the logs by (round,
// node) — the order in which the sequential driver makes the calls, which
// ordered runs check against their actual call order.
type fingerprinter struct {
	ordered bool
	perNode [][]callback
	calls   []callback // actual call order; ordered runs only
	h       hash.Hash64
	buf     []byte
}

func newFingerprinter(n int, ordered bool) *fingerprinter {
	return &fingerprinter{ordered: ordered, perNode: make([][]callback, n), h: fnv.New64a()}
}

func (f *fingerprinter) fold(vs ...int64) {
	f.buf = f.buf[:0]
	for _, v := range vs {
		f.buf = binary.LittleEndian.AppendUint64(f.buf, uint64(v))
	}
	f.h.Write(f.buf)
}

func (f *fingerprinter) log(c callback) {
	f.perNode[c.node] = append(f.perNode[c.node], c)
	if f.ordered {
		f.calls = append(f.calls, c)
	}
}

// watch registers callbacks that log every recv and ack output; onAck, if
// non-nil, runs after the log (a closed-loop client re-broadcasting).
func (f *fingerprinter) watch(nw *Network, onAck func(node int)) {
	nw.OnReceive(func(node int, d Delivery) {
		f.log(callback{int64(d.Round), int64(node), 1, int64(d.ID), int64(d.From)})
	})
	nw.OnAck(func(node int, id MessageID) {
		f.log(callback{int64(nw.Round()), int64(node), 2, int64(id), -1})
		if onAck != nil {
			onAck(node)
		}
	})
}

// finish folds the callbacks, the trace and the statistics into the
// fingerprint; it also returns the callbacks in (round, node) order.
func (f *fingerprinter) finish(t *testing.T, nw *Network) (bankedFingerprint, []callback) {
	t.Helper()
	var fp bankedFingerprint
	var merged []callback
	for _, log := range f.perNode {
		merged = append(merged, log...)
	}
	slices.SortStableFunc(merged, func(a, b callback) int {
		return cmp.Or(cmp.Compare(a.round, b.round), cmp.Compare(a.node, b.node))
	})
	if f.ordered && !slices.Equal(merged, f.calls) {
		t.Error("callbacks did not run in ascending node order within each round")
	}
	for _, c := range merged {
		f.fold(c.round, c.node, c.kind, c.id, c.from)
		if c.kind == 1 {
			fp.Receives++
		} else {
			fp.Acks++
		}
	}
	tr := nw.engine.Trace()
	for ev := range tr.Events() {
		f.fold(3, int64(ev.Round), int64(ev.Node), int64(ev.Kind), int64(ev.From), int64(ev.MsgID))
	}
	fp.Rounds = tr.RoundsRun
	fp.Events = tr.Len()
	fp.Transmissions, fp.Deliveries, fp.Collisions = nw.Stats()
	fp.Hash = f.h.Sum64()
	return fp, merged
}

// buildBanked constructs a network under the run's driver and worker count.
// With logged set it turns on the bank's event recording, which the
// full-event fingerprints read; otherwise the network keeps its default of
// recording nothing.
func buildBanked(t *testing.T, run bankedRun, logged bool, build func(Option) (*Network, error)) *Network {
	t.Helper()
	if run.workers > 0 {
		old := runtime.GOMAXPROCS(run.workers)
		defer runtime.GOMAXPROCS(old)
	}
	opt := WithDriver(run.driver)
	if logged {
		// The bank keeps the engine's recorders only if recording is on at Init.
		opt = func(o *options) { WithDriver(run.driver)(o); o.recordEvents = true }
	}
	nw, err := build(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	return nw
}

// checkUnlogged requires a run on the default network, which records no
// events, to make the same callbacks and Stats() as the logging run.
func checkUnlogged(t *testing.T, logged, unlogged bankedFingerprint, loggedCalls, unloggedCalls []callback) {
	t.Helper()
	if unlogged.Events != 0 {
		t.Errorf("the default network recorded %d trace events, want 0", unlogged.Events)
	}
	// The hashes differ by the logged run's events; the callbacks are
	// compared whole below.
	logged.Events, logged.Hash, unlogged.Hash = 0, 0, 0
	if unlogged != logged {
		t.Errorf("the default network's outputs differ from the logging run's:\n got  %+v\n want %+v", unlogged, logged)
	}
	if !slices.Equal(unloggedCalls, loggedCalls) {
		t.Error("the default network's callbacks differ from the logging run's")
	}
}

// TestBankedGoldenMultiHop pins the full-event trace of a banked multi-hop
// network across every driver and several worker counts. n = 1003 is not a
// multiple of 8 and the 3- and 7-worker splits put range boundaries inside
// 8-node words, so any word-at-a-time column scan meets ragged heads and
// tails. Every 37th node broadcasts at round 0 and every 37th node from 18
// on joins mid-phase, so the run covers seed agreement, the deferred start
// of a pending sender, body rounds, and both phase boundaries. Each run is
// repeated on the default network, which must make the same callbacks and
// Stats() without recording an event.
func TestBankedGoldenMultiHop(t *testing.T) {
	want := bankedFingerprint{
		Rounds: 1170, Events: 13643, Receives: 1104, Acks: 0,
		Transmissions: 3757, Deliveries: 41961, Collisions: 4438,
		Hash: 9125232549607963146,
	}
	exec := func(t *testing.T, run bankedRun, logged bool) (bankedFingerprint, []callback) {
		nw := buildBanked(t, run, logged, func(d Option) (*Network, error) {
			return NewRandomGeometric(1003, 18, 18, 1.5, WithSeed(11), WithEpsilon(0.25), d)
		})
		f := newFingerprinter(nw.Size(), run.driver == DriverSequential)
		f.watch(nw, nil)
		phase := nw.Schedule().PhaseRounds
		for u := 0; u < nw.Size(); u += 37 {
			if _, err := nw.Broadcast(u, u); err != nil {
				t.Fatal(err)
			}
		}
		nw.Run(phase / 2)
		for u := 18; u < nw.Size(); u += 37 {
			if _, err := nw.Broadcast(u, u); err != nil {
				t.Fatal(err)
			}
		}
		nw.Run(2*phase - phase/2)
		return f.finish(t, nw)
	}
	for _, run := range bankedRuns {
		t.Run(run.name, func(t *testing.T) {
			got, calls := exec(t, run, true)
			if got != want {
				t.Errorf("banked fingerprint changed:\n got  %+v\n want %+v", got, want)
			}
			unlogged, unloggedCalls := exec(t, run, false)
			checkUnlogged(t, got, unlogged, calls, unloggedCalls)
		})
	}
}

// TestBankedGoldenClosedLoop pins a banked single-hop cluster run long
// enough for acks: four senders re-broadcast from inside their OnAck
// callback, so the ack edge at the last body round of a phase and a Bcast
// issued during the receive phase are both in the fingerprint. n = 19
// leaves a 3-node tail after two 8-node words. Each run is repeated on the
// default network, which must make the same callbacks and Stats() without
// recording an event.
func TestBankedGoldenClosedLoop(t *testing.T) {
	want := bankedFingerprint{
		Rounds: 20520, Events: 14844, Receives: 144, Acks: 4,
		Transmissions: 3615, Deliveries: 28440, Collisions: 14419,
		Hash: 1684274942615250211,
	}
	exec := func(t *testing.T, run bankedRun, logged bool) (bankedFingerprint, []callback) {
		nw := buildBanked(t, run, logged, func(d Option) (*Network, error) {
			return NewCluster(19, WithSeed(23), WithEpsilon(0.25), d)
		})
		f := newFingerprinter(nw.Size(), run.driver == DriverSequential)
		f.watch(nw, func(node int) {
			if _, err := nw.Broadcast(node, node); err != nil {
				t.Errorf("re-broadcast from node %d: %v", node, err)
			}
		})
		for _, u := range []int{0, 5, 11, 18} {
			if _, err := nw.Broadcast(u, u); err != nil {
				t.Fatal(err)
			}
		}
		s := nw.Schedule()
		nw.Run(s.TAck + s.PhaseRounds)
		return f.finish(t, nw)
	}
	for _, run := range bankedRuns {
		t.Run(run.name, func(t *testing.T) {
			got, calls := exec(t, run, true)
			if got.Acks == 0 {
				t.Fatal("no acks: the closed loop never closed")
			}
			if got != want {
				t.Errorf("banked fingerprint changed:\n got  %+v\n want %+v", got, want)
			}
			unlogged, unloggedCalls := exec(t, run, false)
			checkUnlogged(t, got, unlogged, calls, unloggedCalls)
		})
	}
}
