package xrand

import (
	"fmt"
	"math"
	"testing"
)

func TestSeedLen(t *testing.T) {
	r := New(1)
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1000} {
		sd := r.DrawSeed(n)
		if sd.Len() != n {
			t.Errorf("DrawSeed(%d).Len() = %d", n, sd.Len())
		}
		if got := len(sd.Words(nil)); got != (n+63)/64 {
			t.Errorf("DrawSeed(%d).Words has %d words, want %d", n, got, (n+63)/64)
		}
	}
}

// TestSeedWordsMatchStream: a seed's words are the next ⌈n/64⌉ outputs of
// the source with the last word's unused high bits cleared, and drawing
// the seed advances the source exactly as reading those words does.
func TestSeedWordsMatchStream(t *testing.T) {
	for _, n := range []int{0, 1, 12, 63, 64, 65, 127, 128, 129, 2430, 4096, 5000} {
		drawn, read := New(uint64(n)), New(uint64(n))
		sd := drawn.DrawSeed(n)
		want := make([]uint64, (n+63)/64)
		for i := range want {
			want[i] = read.Uint64()
		}
		if rem := n % 64; rem != 0 {
			want[len(want)-1] &= 1<<uint(rem) - 1
		}
		got := sd.Words(nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d word %d: %#x, want %#x", n, i, got[i], want[i])
			}
		}
		if a, b := drawn.Uint64(), read.Uint64(); a != b {
			t.Fatalf("n=%d: the source after DrawSeed yields %#x, after reading the words %#x", n, a, b)
		}
	}
}

// TestSeedWordsReusesBuffer: Words regenerates into the caller's buffer
// when it is large enough, without allocating, and allocates otherwise.
func TestSeedWordsReusesBuffer(t *testing.T) {
	sd := New(2).DrawSeed(2430)
	var buf [64]uint64
	if got := sd.Words(buf[:0]); &got[0] != &buf[0] {
		t.Error("Words did not reuse a buffer with enough capacity")
	}
	if allocs := testing.AllocsPerRun(10, func() { sd.Words(buf[:0]) }); allocs != 0 {
		t.Errorf("Words into a large enough buffer allocated %v times", allocs)
	}
	if got := sd.Words(make([]uint64, 0, 4)); len(got) != 38 {
		t.Errorf("Words into a short buffer returned %d words, want 38", len(got))
	}
}

func TestSeedEqual(t *testing.T) {
	r := New(7)
	a, b := r.DrawSeed(100), r.DrawSeed(100)
	if a == b {
		t.Fatal("two random 100-bit seeds compare equal (astronomically unlikely)")
	}
	if c := a; c != a {
		t.Fatal("a copy does not compare equal to the original")
	}
	if New(7).DrawSeed(100) != a {
		t.Fatal("the same draw from the same stream compares unequal")
	}
	if New(7).DrawSeed(50) == a {
		t.Fatal("seeds of different length compare equal")
	}
}

func TestSeedUniform(t *testing.T) {
	// Random seeds should be roughly balanced.
	const n = 4096
	ones := New(8).DrawSeed(n).Ones()
	if math.Abs(float64(ones)-n/2) > 5*math.Sqrt(n/4) {
		t.Fatalf("Ones = %d out of %d", ones, n)
	}
}

// TestSeedString pins the rendering that trace JSON prints for decide
// events: bits[n] and the first 16 bytes in hex.
func TestSeedString(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{
		{0, "bits[0]"},
		{1, "bits[1]01"},
		{12, "bits[12]fd09"},
		{63, "bits[63]fd2921692edc6d74"},
		{64, "bits[64]fd2921692edc6df4"},
		{65, "bits[65]fd2921692edc6df401"},
		{120, "bits[120]fd2921692edc6df4671217e4a7de8d"},
		{127, "bits[127]fd2921692edc6df4671217e4a7de8d69"},
		{128, "bits[128]fd2921692edc6df4671217e4a7de8d69"},
		{129, "bits[129]fd2921692edc6df4671217e4a7de8d69…"},
		{2048, "bits[2048]fd2921692edc6df4671217e4a7de8d69…"},
	} {
		if got := New(10).DrawSeed(tc.n).String(); got != tc.want {
			t.Errorf("n=%d: String() = %q, want %q", tc.n, got, tc.want)
		}
	}
	if got := (Seed{}).String(); got != "bits[0]" {
		t.Errorf("zero Seed renders %q", got)
	}
}

func TestDrawSeedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a negative length")
		}
	}()
	New(1).DrawSeed(-1)
}

// drawSeedRef is DrawSeed as it was first written: ⌈n/64⌉ Uint64 calls,
// each storing the state and computing an output nobody reads.
func drawSeedRef(r *Source, n int) Seed {
	sd := Seed{s: r.s, n: n}
	for i := (n + 63) / 64; i > 0; i-- {
		r.Uint64()
	}
	return sd
}

// TestDrawSeedMatchesUint64Loop: DrawSeed's local-word transition leaves
// the source in the state the Uint64 loop does, returns the same seed, and
// so gives the same next draw, for every length 0…1,000 and for κ = 2,430.
func TestDrawSeedMatchesUint64Loop(t *testing.T) {
	lengths := make([]int, 0, 1002)
	for n := 0; n <= 1000; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range append(lengths, 2430) {
		got, want := NodeSource(uint64(n), n), NodeSource(uint64(n), n)
		sd, ref := got.DrawSeed(n), drawSeedRef(want, n)
		if sd != ref {
			t.Fatalf("n=%d: seed %v, reference %v", n, sd, ref)
		}
		if *got != *want {
			t.Fatalf("n=%d: state %x, reference %x", n, got.s, want.s)
		}
		if a, b := got.Uint64(), want.Uint64(); a != b {
			t.Fatalf("n=%d: next draw %#x, reference %#x", n, a, b)
		}
	}
}

// BenchmarkDrawSeed draws seeds at the benchmark's scale-1e5 κ = 2,430,
// at half of it, and at a long-phase κ = 6,790.
func BenchmarkDrawSeed(b *testing.B) {
	for _, kappa := range []int{1215, 2430, 6790} {
		b.Run(fmt.Sprintf("kappa=%d", kappa), func(b *testing.B) {
			r := New(1)
			var sink Seed
			for i := 0; i < b.N; i++ {
				sink = r.DrawSeed(kappa)
			}
			_ = sink
		})
	}
}
