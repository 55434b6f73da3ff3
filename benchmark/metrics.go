package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"time"
)

// epoch anchors every host timestamp the benchmark takes; time.Since reads
// the monotonic clock, so timestamps are immune to wall-clock steps.
var epoch = time.Now()

// now returns host nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

// seconds converts a nanosecond duration to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// liveMB forces a collection and returns the bytes still reachable, in MB
// (10⁶ bytes). Forcing the GC first makes the reading a property of what the
// program retains rather than of when the collector last ran.
func liveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// totalAlloc returns the cumulative bytes allocated by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// quantile returns the q-quantile of sorted samples by linear interpolation
// between closest ranks (the "type 7" definition).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// minTail is the number of samples a reported tail percentile must have
// beyond it; fewer would make the percentile one or two samples' noise.
const minTail = 10

// tailQuantile returns the percentile to report as a tail: want if at least
// minTail samples lie beyond it, otherwise the highest percentile that has
// minTail samples beyond it (never below the median). It returns the level
// used next to the value, so a printout can state which percentile it is.
func tailQuantile(samples []float64, want float64) (level, value float64) {
	n := len(samples)
	if n == 0 {
		return want, math.NaN()
	}
	level = math.Min(want, 1-float64(minTail)/float64(n))
	level = math.Max(level, 0.5)
	sorted := slices.Sorted(slices.Values(samples))
	return level, quantile(sorted, level)
}

// median returns the median of samples (NaN when empty).
func median(samples []float64) float64 {
	return quantile(slices.Sorted(slices.Values(samples)), 0.5)
}

// fingerprint folds a run's simulated outputs into one 64-bit FNV-1a value.
// Only simulated quantities enter it — never host timings — so two runs of
// the same seed must agree bit for bit.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

// ints folds a sequence of integers.
func (f *fingerprint) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		f.h.Write(b[:])
	}
}

// bytes folds raw bytes (a rendered report).
func (f *fingerprint) bytes(b []byte) { f.h.Write(b) }

func (f *fingerprint) sum() uint64 { return f.h.Sum64() }

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in insertion order for the printout and as a map
// for the JSON result.
type metricSet struct {
	names []string
	m     map[string]metric
	notes map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{m: map[string]metric{}, notes: map[string]string{}}
}

// add records a metric; note is an optional printout annotation (sample
// counts, which percentile a tail is).
func (s *metricSet) add(name, unit string, v float64, note string) {
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
	if note != "" {
		s.notes[name] = note
	}
}

// print writes the set as an aligned table.
func (s *metricSet) print(title string) {
	fmt.Println(title)
	for _, name := range s.names {
		mt := s.m[name]
		fmt.Printf("  %-30s %14.6g %-6s %s\n", name, mt.Value, mt.Unit, s.notes[name])
	}
}

// pick returns the named subset as the result's metric map, failing if one
// is missing: the result line must carry exactly the metrics BENCHMARK.json
// declares.
func (s *metricSet) pick(names []string) (map[string]metric, error) {
	out := make(map[string]metric, len(names))
	for _, name := range names {
		mt, ok := s.m[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = mt
	}
	return out, nil
}

// repStats collects one value per repetition for each metric and reports
// their medians: one slow repetition (a host hiccup) then moves nothing.
type repStats struct {
	names []string
	units map[string]string
	notes map[string]string
	vals  map[string][]float64
}

func newRepStats() *repStats {
	return &repStats{units: map[string]string{}, notes: map[string]string{}, vals: map[string][]float64{}}
}

func (r *repStats) add(name, unit string, v float64) {
	if _, ok := r.units[name]; !ok {
		r.names = append(r.names, name)
		r.units[name] = unit
	}
	r.vals[name] = append(r.vals[name], v)
}

// latency adds a repetition's median and tail host latency from samples in
// nanoseconds.
func (r *repStats) latency(prefix string, ns []float64) {
	ms := make([]float64, len(ns))
	for i, v := range ns {
		ms[i] = v / 1e6
	}
	level, tail := tailQuantile(ms, 0.99)
	r.add(prefix+"_p50", "ms", median(ms))
	r.add(prefix+"_p99", "ms", tail)
	r.notes[prefix+"_p50"] = fmt.Sprintf("%d samples per repetition", len(ms))
	r.notes[prefix+"_p99"] = fmt.Sprintf("p%.4g of %d samples", 100*level, len(ms))
}

// into adds every metric's median over the repetitions to ms.
func (r *repStats) into(ms *metricSet) {
	for _, name := range r.names {
		v := r.vals[name]
		note := fmt.Sprintf("median of %d", len(v))
		if n := r.notes[name]; n != "" {
			note += "; " + n
		}
		ms.add(name, r.units[name], median(v), note)
	}
}

// repeat calls rep until the budget is spent: always once, and again only
// while the slowest repetition so far still fits in what is left.
func repeat(budget time.Duration, rep func() error) error {
	start := time.Now()
	var slowest time.Duration
	for {
		t := time.Now()
		if err := rep(); err != nil {
			return err
		}
		slowest = max(slowest, time.Since(t))
		if time.Since(start)+slowest > budget {
			return nil
		}
	}
}
