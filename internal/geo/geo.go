package geo

import (
	"fmt"
	"math"
)

// Point is a position in the Euclidean plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// RegionSide is the side length of the grid squares used by the fixed
// partition R. The paper (proof of Lemma A.1) uses squares of side ½ so
// that every region has diameter at most 1 — any two points in the same
// region are reliable neighbors.
const RegionSide = 0.5

// RegionID identifies one square of the grid partition by its integer grid
// coordinates: region (i, j) covers [i·side, (i+1)·side) × [j·side, (j+1)·side).
type RegionID struct {
	I, J int32
}

// String implements fmt.Stringer.
func (r RegionID) String() string { return fmt.Sprintf("R(%d,%d)", r.I, r.J) }

// MaxCoord bounds the magnitude of an embedding coordinate. Region
// coordinates are int32, and so are the spans between regions: ±10⁸ keeps
// both within range with room to spare.
const MaxCoord = 1e8

// CheckPoints returns an error for the first point with a NaN, infinite or
// out-of-range (|coordinate| > MaxCoord) coordinate. Every consumer of an
// embedding — RegionOf, the grid index, distances — assumes finite,
// in-range points.
func CheckPoints(emb []Point) error {
	for i, p := range emb {
		if !(math.Abs(p.X) <= MaxCoord && math.Abs(p.Y) <= MaxCoord) {
			return fmt.Errorf("geo: point %d at (%v, %v) is not within ±%g", i, p.X, p.Y, MaxCoord)
		}
	}
	return nil
}

// RegionOf returns the ID of the grid region containing p.
//
// The paper makes each square half-open so the squares form a true
// partition; floor-based indexing gives exactly that.
func RegionOf(p Point) RegionID {
	return RegionID{
		I: int32(math.Floor(p.X / RegionSide)),
		J: int32(math.Floor(p.Y / RegionSide)),
	}
}

// regionRect returns the closed bounding box of a region. For distance
// computations the closure is the right object: the infimum distance
// between two half-open squares equals the distance between their closures.
func regionRect(id RegionID) (x0, y0, x1, y1 float64) {
	x0 = float64(id.I) * RegionSide
	y0 = float64(id.J) * RegionSide
	return x0, y0, x0 + RegionSide, y0 + RegionSide
}

// RegionDist returns the minimum Euclidean distance between (the closures
// of) two grid regions. It is 0 for identical or touching regions.
func RegionDist(a, b RegionID) float64 {
	ax0, ay0, ax1, ay1 := regionRect(a)
	bx0, by0, bx1, by1 := regionRect(b)
	dx := intervalGap(ax0, ax1, bx0, bx1)
	dy := intervalGap(ay0, ay1, by0, by1)
	return math.Sqrt(dx*dx + dy*dy)
}

// intervalGap returns the gap between intervals [a0,a1] and [b0,b1], or 0
// if they overlap.
func intervalGap(a0, a1, b0, b1 float64) float64 {
	switch {
	case a1 < b0:
		return b0 - a1
	case b1 < a0:
		return a0 - b1
	default:
		return 0
	}
}
