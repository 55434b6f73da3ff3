package lbcast

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
)

func TestNewClusterBasics(t *testing.T) {
	nw, err := NewCluster(6, WithEpsilon(0.25), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 6 {
		t.Errorf("Size = %d", nw.Size())
	}
	s := nw.Schedule()
	if s.Delta != 6 || s.Epsilon != 0.25 {
		t.Errorf("Schedule = %+v", s)
	}
	if s.TAck < s.TProg || s.TProg < 1 {
		t.Errorf("bounds inconsistent: %+v", s)
	}
	if s.PhaseRounds != s.TProg {
		t.Errorf("phase length %d ≠ t_prog %d", s.PhaseRounds, s.TProg)
	}
}

func TestBroadcastDeliveryAndAck(t *testing.T) {
	nw, err := NewCluster(5, WithEpsilon(0.2), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	recvd := map[int]bool{}
	nw.OnReceive(func(node int, d Delivery) {
		if d.Payload != "hi" {
			t.Errorf("payload = %v", d.Payload)
		}
		if d.ID.Src() != 0 || d.From != 0 {
			t.Errorf("delivery origin wrong: %+v", d)
		}
		recvd[node] = true
	})
	var ackedNode = -1
	nw.OnAck(func(node int, id MessageID) { ackedNode = node })

	id, err := nw.Broadcast(0, "hi")
	if err != nil {
		t.Fatal(err)
	}
	if !nw.Busy(0) {
		t.Error("node 0 not busy after Broadcast")
	}
	if !nw.RunUntilAck(id) {
		t.Fatal("broadcast never acknowledged")
	}
	if !nw.Acked(id) || ackedNode != 0 {
		t.Errorf("ack bookkeeping: acked=%v node=%d", nw.Acked(id), ackedNode)
	}
	if nw.Busy(0) {
		t.Error("node 0 still busy after ack")
	}
	// ε=0.2 on a 5-clique: all four neighbors should usually have received.
	if len(recvd) < 3 {
		t.Errorf("only %d neighbors received", len(recvd))
	}
	tx, del, _ := nw.Stats()
	if tx == 0 || del == 0 {
		t.Errorf("stats empty: tx=%d del=%d", tx, del)
	}
}

func TestBroadcastValidation(t *testing.T) {
	nw, err := NewCluster(3, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Broadcast(-1, "x"); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := nw.Broadcast(3, "x"); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := nw.Broadcast(0, "first"); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Broadcast(0, "second"); err == nil {
		t.Error("second broadcast accepted while busy")
	}
}

// TestBusyOutOfRange: Busy answers false for nodes outside [0, Size()),
// the same nodes Broadcast rejects with an error, instead of panicking.
func TestBusyOutOfRange(t *testing.T) {
	nw, err := NewCluster(4, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []int{-1, nw.Size()} {
		if nw.Busy(node) {
			t.Errorf("Busy(%d) = true on a %d-node network", node, nw.Size())
		}
		if _, err := nw.Broadcast(node, "x"); err == nil {
			t.Errorf("Broadcast(%d) accepted on a %d-node network", node, nw.Size())
		}
	}
}

func TestNewGeometric(t *testing.T) {
	// Two nodes at distance 0.5 (reliable) and one at 1.5 (unreliable from
	// the middle with r=2).
	pts := []Point{{0, 0}, {0.5, 0}, {2, 0}}
	nw, err := NewGeometric(pts, 2, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 3 {
		t.Errorf("Size = %d", nw.Size())
	}
	s := nw.Schedule()
	if s.DeltaPrime < s.Delta {
		t.Errorf("Δ'=%d < Δ=%d", s.DeltaPrime, s.Delta)
	}
}

// pairLoopDual is the reference construction for NewGeometric: the
// distance of every pair, sorted-insert edges and the validating NewDual.
// It is O(n²), which is why NewGeometric builds through the grid index
// instead.
func pairLoopDual(points []Point, r float64) (*dualgraph.Dual, error) {
	emb := toEmbedding(points)
	g, gp := dualgraph.NewGraph(len(emb)), dualgraph.NewGraph(len(emb))
	for u := range emb {
		for v := u + 1; v < len(emb); v++ {
			switch dist := geo.Dist(emb[u], emb[v]); {
			case dist <= 1:
				g.AddEdge(u, v)
				gp.AddEdge(u, v)
			case dist <= r:
				gp.AddEdge(u, v)
			}
		}
	}
	return dualgraph.NewDual(g, gp, emb, r)
}

func toEmbedding(points []Point) []geo.Point {
	emb := make([]geo.Point, len(points))
	for i, p := range points {
		emb[i] = geo.Point{X: p.X, Y: p.Y}
	}
	return emb
}

// requireSameDual fails unless got and want agree on everything the engine
// and the schedulers read: the embedding, r, G and G′ neighbours, the
// unreliable edge order and both CSR forms.
func requireSameDual(t *testing.T, got, want *dualgraph.Dual) {
	t.Helper()
	if got.N() != want.N() || got.R != want.R || !slices.Equal(got.Emb, want.Emb) {
		t.Fatalf("shape: n=%d r=%v vs n=%d r=%v, or the embeddings differ", got.N(), got.R, want.N(), want.R)
	}
	for u := range got.N() {
		if !slices.Equal(got.G.Neighbors(u), want.G.Neighbors(u)) {
			t.Fatalf("G neighbours of %d: %v, want %v", u, got.G.Neighbors(u), want.G.Neighbors(u))
		}
		if !slices.Equal(got.Gp.Neighbors(u), want.Gp.Neighbors(u)) {
			t.Fatalf("G′ neighbours of %d: %v, want %v", u, got.Gp.Neighbors(u), want.Gp.Neighbors(u))
		}
	}
	if !slices.Equal(got.UnreliableEdges(), want.UnreliableEdges()) {
		t.Fatal("unreliable edges differ")
	}
	gc, wc := got.ReliableCSR(), want.ReliableCSR()
	if !slices.Equal(gc.Off, wc.Off) || !slices.Equal(gc.Targets, wc.Targets) {
		t.Fatal("reliable CSR differs")
	}
	gu, wu := got.UnreliableCSR(), want.UnreliableCSR()
	if !slices.Equal(gu.Off, wu.Off) || !slices.Equal(gu.Peers, wu.Peers) || !slices.Equal(gu.Edges, wu.Edges) {
		t.Fatal("unreliable CSR differs")
	}
}

// campusPlacement is the benchmark's campus-ack placement: 32 × 32 rooms
// 2.2 apart, each with 8 nodes uniform in the disk of diameter 1 around
// its centre.
func campusPlacement(seed uint64) []Point {
	rng := rand.New(rand.NewPCG(seed, 0xca3b05ac))
	pts := make([]Point, 0, 32*32*8)
	for k := range 32 * 32 {
		cx, cy := float64(k%32)*2.2, float64(k/32)*2.2
		for range 8 {
			rad, th := 0.5*math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
			pts = append(pts, Point{X: cx + rad*math.Cos(th), Y: cy + rad*math.Sin(th)})
		}
	}
	return pts
}

// lattice returns the nx × ny points (x0 + i·dx, y0 + j·dy).
func lattice(nx, ny int, x0, y0, dx, dy float64) []Point {
	pts := make([]Point, 0, nx*ny)
	for i := range nx {
		for j := range ny {
			pts = append(pts, Point{X: x0 + float64(i)*dx, Y: y0 + float64(j)*dy})
		}
	}
	return pts
}

// TestNewGeometricMatchesPairLoop: on placements that stress the grid
// index — dense rooms, duplicates, pairs at exactly distance 1 and r,
// points on region boundaries, negative coordinates and a ±10⁸ spread that
// puts the index in its sparse mode — NewGeometric's dual passes Validate
// and equals the all-pairs reference's.
func TestNewGeometricMatchesPairLoop(t *testing.T) {
	spread := []Point{{-1e8, -1e8}, {-1e8 + 0.5, -1e8}, {-1e8 + 1.7, -1e8 + 0.2}, {0, 0}, {0.3, -0.9},
		{1e8, 1e8}, {1e8 - 1, 1e8}, {1e8, 1e8 - 2.7}, {1e8 - 0.5, 1e8 - 0.5}, {-1e8, 1e8}}
	for _, r := range []float64{1, 1.5, 2.7} {
		for _, tc := range []struct {
			name   string
			points []Point
		}{
			{"campus seed 1", campusPlacement(1)},
			{"campus seed 97", campusPlacement(97)},
			{"duplicates", append(lattice(3, 3, 0.25, 0.25, 0, 0), lattice(4, 2, 0.25, 1.25, 1, 0)...)},
			{"unit lattice", lattice(9, 7, 0, 0, 1, 1)},
			{"r lattice", lattice(8, 6, -3, 2, r, r)},
			{"mixed lattice", lattice(10, 10, -1, -1, 1, r)},
			{"region boundaries", lattice(13, 13, -3, -3, geo.RegionSide, geo.RegionSide)},
			{"spread", spread},
		} {
			t.Run(fmt.Sprintf("r=%v/%s", r, tc.name), func(t *testing.T) {
				nw, err := NewGeometric(tc.points, r)
				if err != nil {
					t.Fatal(err)
				}
				defer nw.Close()
				if err := nw.dual.Validate(); err != nil {
					t.Fatal(err)
				}
				want, err := pairLoopDual(tc.points, r)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				requireSameDual(t, nw.dual, want)
			})
		}
	}
}

// FuzzNewGeometric feeds NewGeometric arbitrary placements: r, and up to 64
// points read from the bytes as little-endian float64 pairs. NewGeometric
// must never panic; dualgraph.Geometric must accept exactly what the
// validating all-pairs reference accepts; and an accepted placement must
// give the reference's dual and pass Validate.
func FuzzNewGeometric(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, seed := range []struct {
		r      float64
		points []Point
	}{
		{1.5, []Point{{0, 0}, {0.5, 0}, {2, 0}}},
		{1, nil},
		{1.5, []Point{{0, 0}, {nan, 0.5}}},
		{1.5, []Point{{inf, 0}, {0.5, -inf}}},
		{nan, []Point{{0, 0}, {0.5, 0}}},
		{inf, []Point{{0, 0}, {0.5, 0}}},
		{2.7, []Point{{1, 1}, {1, 1}, {1, 1}, {1, 2}, {1, 3.7}, {-1.5, 1}}},
		{1.5, []Point{{-1e8, -1e8}, {1e8, 1e8}, {1e8 - 1, 1e8}, {1e8 - 2, 1e8 - 0.5}, {0, 0}}},
		{1e9, []Point{{0, 0}, {1e6, 0}}},
		{1e9, lattice(8, 8, 0, 0, 1, 1)},
		{1, lattice(6, 6, -1.5, -1.5, 0.5, 1)},
	} {
		f.Add(seed.r, encodePoints(seed.points))
	}
	f.Fuzz(func(t *testing.T, r float64, data []byte) {
		points := decodePoints(data)
		got, err := dualgraph.Geometric(toEmbedding(points), r)
		want, wantErr := pairLoopDual(points, r)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Geometric error %v, reference error %v", err, wantErr)
		}
		if err == nil {
			if err := got.Validate(); err != nil {
				t.Fatalf("accepted dual fails Validate: %v", err)
			}
			requireSameDual(t, got, want)
		}
		nw, err := NewGeometric(points, r)
		if err != nil {
			return
		}
		defer nw.Close()
		if want == nil {
			t.Fatal("NewGeometric accepted a placement the reference rejects")
		}
		requireSameDual(t, nw.dual, want)
	})
}

// encodePoints and decodePoints map points to FuzzNewGeometric's input
// bytes and back; decodePoints ignores a trailing partial point and
// everything after 64 points.
func encodePoints(points []Point) []byte {
	var b []byte
	for _, p := range points {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Y))
	}
	return b
}

func decodePoints(b []byte) []Point {
	points := make([]Point, 0, min(len(b)/16, 64))
	for ; len(b) >= 16 && len(points) < 64; b = b[16:] {
		points = append(points, Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(b)),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		})
	}
	return points
}

func TestNewGeometricInvalid(t *testing.T) {
	if _, err := NewGeometric(nil, 1); err == nil {
		t.Error("empty embedding accepted")
	}
	if _, err := NewGeometric([]Point{{0, 0}}, 0.5); err == nil {
		t.Error("r < 1 accepted")
	}
}

// TestNewGeometricSparseLongPhase: one node at r = 1000 derives a phase of
// 86,142,882 rounds, and building its network must not allocate in
// proportion.
func TestNewGeometricSparseLongPhase(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nw, err := NewGeometric([]Point{{0, 0}}, 1000)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Errorf("NewGeometric allocated %d B for one node at r = 1000, want < 64 KB", alloc)
	}
}

func TestNewRandomGeometric(t *testing.T) {
	nw, err := NewRandomGeometric(40, 4, 4, 1.5, WithSeed(11), WithEpsilon(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 40 {
		t.Errorf("Size = %d", nw.Size())
	}
	nw.Run(10)
	if nw.Round() != 10 {
		t.Errorf("Round = %d", nw.Round())
	}
}

func TestDeterminismAcrossNetworks(t *testing.T) {
	run := func() (int, int, int) {
		nw, err := NewCluster(6, WithSeed(42), WithEpsilon(0.25))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Broadcast(0, "d"); err != nil {
			t.Fatal(err)
		}
		nw.Run(500)
		return nw.Stats()
	}
	t1, d1, c1 := run()
	t2, d2, c2 := run()
	if t1 != t2 || d1 != d2 || c1 != c2 {
		t.Errorf("identical configs diverged: (%d,%d,%d) vs (%d,%d,%d)", t1, d1, c1, t2, d2, c2)
	}
}

func TestSchedulerOptions(t *testing.T) {
	for _, s := range []Scheduler{ScheduleNever(), ScheduleAlways(), ScheduleRandom(0.3, 5), ScheduleAntiDecay(4)} {
		nw, err := NewRandomGeometric(15, 3, 3, 2, WithScheduler(s), WithSeed(6))
		if err != nil {
			t.Fatalf("scheduler %s: %v", s.name, err)
		}
		nw.Run(50)
	}
}

func TestSeedAgreementEveryOption(t *testing.T) {
	nw, err := NewCluster(4, WithSeedAgreementEvery(2), WithSeed(8), WithEpsilon(0.25))
	if err != nil {
		t.Fatal(err)
	}
	id, err := nw.Broadcast(0, "k2")
	if err != nil {
		t.Fatal(err)
	}
	if !nw.RunUntilAck(id) {
		t.Error("no ack under k=2 seed agreement")
	}
}

func TestEmptyNetworkRejected(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestDriverParityThroughFacade(t *testing.T) {
	run := func(d Driver) (int, int, int) {
		nw, err := NewCluster(6, WithSeed(77), WithEpsilon(0.25), WithDriver(d))
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		if _, err := nw.Broadcast(0, "parity"); err != nil {
			t.Fatal(err)
		}
		nw.Run(600)
		return nw.Stats()
	}
	t1, d1, c1 := run(DriverSequential)
	if t2, d2, c2 := run(DriverWorkerPool); t1 != t2 || d1 != d2 || c1 != c2 {
		t.Errorf("worker pool diverged: (%d,%d,%d) vs (%d,%d,%d)", t2, d2, c2, t1, d1, c1)
	}
}

// TestHostileInputsReturnErrors feeds every constructor input class a
// caller controls — sizes, coordinates, r, w, h, ε, the seed-agreement
// period and the driver — values that are negative, NaN, infinite, unknown
// or so large that the schedule or the neighbour stencil would not fit.
// Each must come back as an error, promptly: never a panic, a hang or a
// giant allocation.
func TestHostileInputsReturnErrors(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		build func() (*Network, error)
	}{
		{"negative cluster", func() (*Network, error) { return NewCluster(-1) }},
		{"NaN coordinate", func() (*Network, error) {
			return NewGeometric([]Point{{0, 0}, {nan, 0.5}}, 1.5)
		}},
		{"infinite coordinate", func() (*Network, error) {
			return NewGeometric([]Point{{0, 0}, {0.5, -inf}}, 1.5)
		}},
		{"coordinate beyond the grid", func() (*Network, error) {
			return NewGeometric([]Point{{0, 0}, {1e300, 0}}, 1.5)
		}},
		{"NaN r, explicit placement", func() (*Network, error) {
			return NewGeometric([]Point{{0, 0}, {0.5, 0}}, nan)
		}},
		{"infinite r, explicit placement", func() (*Network, error) {
			return NewGeometric([]Point{{0, 0}, {0.5, 0}}, inf)
		}},
		{"NaN r", func() (*Network, error) { return NewRandomGeometric(10, 3, 3, nan) }},
		{"infinite r", func() (*Network, error) { return NewRandomGeometric(10, 3, 3, inf) }},
		{"NaN w", func() (*Network, error) { return NewRandomGeometric(10, nan, 3, 1.5) }},
		{"infinite w", func() (*Network, error) { return NewRandomGeometric(10, inf, 3, 1.5) }},
		{"NaN h", func() (*Network, error) { return NewRandomGeometric(10, 3, nan, 1.5) }},
		{"infinite h", func() (*Network, error) { return NewRandomGeometric(10, 3, inf, 1.5) }},
		{"unbounded radius", func() (*Network, error) { return NewRandomGeometric(10, 3, 3, 1e9) }},
		{"radius 1000", func() (*Network, error) { return NewRandomGeometric(10, 3, 3, 1000) }},
		{"unbounded radius, spread placement", func() (*Network, error) {
			return NewRandomGeometric(10, 1e6, 1e6, 1e9)
		}},
		{"unbounded radius, explicit placement", func() (*Network, error) {
			return NewGeometric([]Point{{0, 0}, {1e6, 0}}, 1e9)
		}},
		{"unbounded radius, explicit lattice", func() (*Network, error) {
			return NewGeometric(lattice(40, 25, 0, 0, 1, 1), 1e9)
		}},
		{"tiny epsilon", func() (*Network, error) { return NewCluster(8, WithEpsilon(1e-300)) }},
		{"NaN epsilon", func() (*Network, error) { return NewCluster(8, WithEpsilon(nan)) }},
		{"huge seed-agreement period", func() (*Network, error) {
			return NewCluster(8, WithSeedAgreementEvery(1<<40))
		}},
		{"unknown driver", func() (*Network, error) { return NewCluster(8, WithDriver(Driver(3))) }},
		{"NaN random-scheduler probability", func() (*Network, error) {
			return NewCluster(8, WithScheduler(ScheduleRandom(nan, 1)))
		}},
		{"negative random-scheduler probability", func() (*Network, error) {
			return NewCluster(8, WithScheduler(ScheduleRandom(-0.5, 1)))
		}},
		{"random-scheduler probability above 1", func() (*Network, error) {
			return NewCluster(8, WithScheduler(ScheduleRandom(1.5, 1)))
		}},
		{"anti-decay cycle 0", func() (*Network, error) {
			return NewCluster(8, WithScheduler(ScheduleAntiDecay(0)))
		}},
		{"negative anti-decay cycle", func() (*Network, error) {
			return NewCluster(8, WithScheduler(ScheduleAntiDecay(-3)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			nw, err := tc.build()
			if err == nil {
				nw.Close()
				t.Fatal("accepted")
			}
		})
	}
}

// TestUnknownMessageIDs: Acked and RunUntilAck answer false for an id
// Broadcast never returned, and RunUntilAck returns without running a
// round, although another node's broadcast is in flight. An acked id
// gives true, also without a round.
func TestUnknownMessageIDs(t *testing.T) {
	nw, err := NewCluster(8, WithEpsilon(0.25))
	if err != nil {
		t.Fatal(err)
	}
	acked, err := nw.Broadcast(0, "acked")
	if err != nil {
		t.Fatal(err)
	}
	if !nw.RunUntilAck(acked) {
		t.Fatal("broadcast never acknowledged")
	}
	inFlight, err := nw.Broadcast(3, "in flight")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		id   MessageID
	}{
		{"negative", MessageID(-1)},
		{"zero", 0},
		{"sequence 0", MessageID(1) << 32},
		{"never issued", MessageID(3)<<32 | 5},
		{"no such node", MessageID(99) << 32},
		{"sequence 2^32-1", MessageID(2)<<32 | 0xFFFFFFFF},
	} {
		round := nw.Round()
		if nw.Acked(tc.id) {
			t.Errorf("%s id %v: Acked = true", tc.name, tc.id)
		}
		if nw.RunUntilAck(tc.id) {
			t.Errorf("%s id %v: RunUntilAck = true", tc.name, tc.id)
		}
		if nw.Round() != round {
			t.Errorf("%s id %v: RunUntilAck ran %d rounds", tc.name, tc.id, nw.Round()-round)
		}
	}
	round := nw.Round()
	if !nw.RunUntilAck(acked) {
		t.Errorf("acked id %v: RunUntilAck = false", acked)
	}
	if nw.Round() != round {
		t.Errorf("acked id %v: RunUntilAck ran %d rounds", acked, nw.Round()-round)
	}
	if !nw.RunUntilAck(inFlight) {
		t.Errorf("in-flight id %v never acknowledged", inFlight)
	}
}

// TestNetworkSoakFlatHeap runs a closed loop ten times longer than the
// benchmark's campus-ack workload and requires a flat live heap: a Network
// keeps no event history, its acks are one sequence number per node and
// its dedupe one per source heard, so once every node has heard its
// sources, its memory does not grow with the rounds it runs. Every 4th
// node broadcasts at round 0 and re-broadcasts from OnAck. The heap is
// read after a forced GC at the end of the warm-up and at the end; the
// bound leaves room for runtime noise, not for a per-round or
// per-broadcast entry.
func TestNetworkSoakFlatHeap(t *testing.T) {
	const warm, total = 30_000, 300_000
	const maxGrowth, minAcks = 4 << 10, 1000
	nw, err := NewRandomGeometric(512, 20, 20, 1.5, WithSeed(3), WithEpsilon(0.25),
		WithScheduler(ScheduleNever()))
	if err != nil {
		t.Fatal(err)
	}
	acks := 0
	nw.OnAck(func(node int, _ MessageID) {
		acks++
		if _, err := nw.Broadcast(node, node); err != nil {
			t.Errorf("re-broadcast from node %d: %v", node, err)
		}
	})
	for u := 0; u < nw.Size(); u += 4 {
		if _, err := nw.Broadcast(u, u); err != nil {
			t.Fatal(err)
		}
	}
	liveHeap := func() uint64 { return forcedGCHeap().HeapAlloc }
	nw.Run(warm)
	before, warmAcks := liveHeap(), acks
	t.Logf("round %d: live heap %d B, %d acks", nw.Round(), before, acks)
	nw.Run(total - warm)
	after := liveHeap()
	t.Logf("round %d: live heap %d B, %d acks", nw.Round(), after, acks)
	if acks-warmAcks < minAcks {
		t.Fatalf("%d acks after the warm-up, want ≥ %d: the loop carried too little traffic to show growth",
			acks-warmAcks, minAcks)
	}
	if after > before+maxGrowth {
		t.Errorf("live heap grew %d B over %d rounds and %d acks, want ≤ %d B",
			after-before, total-warm, acks-warmAcks, maxGrowth)
	}
}

// forcedGCHeap reads the heap statistics after forced collections, so they
// count live objects only.
func forcedGCHeap() runtime.MemStats {
	// The second collection frees what the first left in sync.Pool victim
	// caches.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// TestNetworkHeapPerNode builds a random geometric network at n = 20,000
// and scale-1e5's density 3 and requires that it retain no heap object per
// node: the dual graph and the engine are flat arrays, and the state bank
// holds every node's protocol state, seed machine and coin stream included,
// in columns, with one recv and one ack callback for the whole network. A
// fixed number of objects over 20,000 nodes reads well under 0.01 per
// node; one object per node reads 1. The figures are forced-GC heap deltas
// across the constructor; -v logs both.
func TestNetworkHeapPerNode(t *testing.T) {
	const n = 20_000
	side := math.Sqrt(n / 3)
	before := forcedGCHeap()
	nw, err := NewRandomGeometric(n, side, side, 1.5, WithEpsilon(0.25))
	if err != nil {
		t.Fatal(err)
	}
	after := forcedGCHeap()
	runtime.KeepAlive(nw)
	objects := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / n
	bytes := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("a built network retains %.0f B and %.4f heap objects per node", bytes, objects)
	if objects >= 0.01 {
		t.Errorf("a built network retains %.4f heap objects per node, want < 0.01", objects)
	}
}
