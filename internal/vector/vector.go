// Package vector provides the n-dimensional point type and the distance
// metrics used throughout the kNN-join pipeline.
//
// The paper (§2.1) defines objects in an n-dimensional metric space with
// Euclidean distance (L2) as the default measure and notes that the methods
// apply unchanged to the Manhattan (L1) and maximum (L∞) metrics; all three
// are provided here.
package vector

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Point is an object in an n-dimensional space. The zero-length Point is
// valid and has distance 0 to itself.
type Point []float64

// Dim returns the dimensionality of the point.
func (p Point) Dim() int { return len(p) }

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// IsFinite reports whether every coordinate is a finite number. The
// loaders reject points that are not: a NaN compares false with
// everything and the triangle inequality the pruning rests on says
// nothing about ±Inf.
func (p Point) IsFinite() bool {
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Project returns the first d coordinates of p as a new point. It panics if
// d exceeds the dimensionality of p.
func (p Point) Project(d int) Point {
	if d > len(p) {
		panic(fmt.Sprintf("vector: cannot project %d-dim point to %d dims", len(p), d))
	}
	return p[:d].Clone()
}

// String formats the point as comma-separated coordinates, e.g. "1,2.5,3".
func (p Point) String() string {
	var b strings.Builder
	for i, v := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return b.String()
}

// Parse parses a comma-separated coordinate list into a Point.
func Parse(s string) (Point, error) {
	return AppendParsed(nil, []byte(s))
}

// AppendParsed parses a comma-separated coordinate list, as Parse does,
// and appends the coordinates to dst, so a caller parsing many points
// can keep them in one backing array. The list is trimmed of spaces,
// must not be empty, and every field, trimmed again, must parse as a
// float64. On error dst comes back at the length it was given.
func AppendParsed(dst []float64, s []byte) ([]float64, error) {
	s = bytes.TrimSpace(s)
	if len(s) == 0 {
		return dst, fmt.Errorf("vector: empty point string")
	}
	n := len(dst)
	dst = slices.Grow(dst, bytes.Count(s, []byte{','})+1)
	for {
		f, rest, more := bytes.Cut(s, []byte{','})
		v, err := strconv.ParseFloat(string(bytes.TrimSpace(f)), 64)
		if err != nil {
			return dst[:n], fmt.Errorf("vector: bad coordinate %q: %w", f, err)
		}
		dst = append(dst, v)
		if !more {
			return dst, nil
		}
		s = rest
	}
}

// Metric identifies a distance measure over Points.
type Metric int

const (
	// L2 is the Euclidean metric, the paper's default.
	L2 Metric = iota
	// L1 is the Manhattan metric.
	L1
	// LInf is the maximum (Chebyshev) metric.
	LInf
)

// String returns the conventional name of the metric.
func (m Metric) String() string {
	switch m {
	case L2:
		return "L2"
	case L1:
		return "L1"
	case LInf:
		return "LInf"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// ParseMetric converts a metric name ("l1", "L2", "linf", "max", ...) into a
// Metric value.
func ParseMetric(s string) (Metric, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "l2", "euclidean", "":
		return L2, nil
	case "l1", "manhattan":
		return L1, nil
	case "linf", "max", "chebyshev", "maximum":
		return LInf, nil
	}
	return L2, fmt.Errorf("vector: unknown metric %q", s)
}

// Dist computes the distance between p and q under the metric. The points
// must have the same dimensionality; Dist panics otherwise, since mixing
// dimensionalities is always a programming error in this pipeline.
func (m Metric) Dist(p, q Point) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("vector: dimension mismatch %d vs %d", len(p), len(q)))
	}
	switch m {
	case L2:
		return math.Sqrt(sqDistL2(p, q)) //lint:allow sqrtfree: Metric.Dist is the public exact API in true units; kernels use sqDistL2
	case L1:
		var s float64
		for i := range p {
			s += math.Abs(p[i] - q[i])
		}
		return s
	case LInf:
		var mx float64
		for i := range p {
			if d := math.Abs(p[i] - q[i]); d > mx {
				mx = d
			}
		}
		return mx
	}
	panic("vector: unknown metric")
}

// SqDist returns the squared Euclidean distance between p and q. It is only
// meaningful for the L2 metric and exists so hot loops can defer the sqrt.
func SqDist(p, q Point) float64 {
	if len(p) != len(q) {
		panic(dimMismatch{len(p), len(q)})
	}
	return sqDistL2(p, q)
}

// dimMismatch is SqDist's panic value. Formatting it lazily keeps the
// wrapper within the inlining budget, so a caller in a scan loop pays
// one call — to sqDistL2 — per distance.
type dimMismatch struct{ a, b int }

func (e dimMismatch) Error() string {
	return fmt.Sprintf("vector: dimension mismatch %d vs %d", e.a, e.b)
}

// sqDistL2 is the one squared-L2 kernel of the repository: every caller
// — Metric.Dist, SqDist, and the Block kernels over flat coordinate rows
// — funnels through it, so scalar and columnar paths agree bit for bit.
// Four accumulators break the loop-carried dependency on the running
// sum, letting the FPU pipeline the adds (~3–4× on wide rows); the
// summation order is fixed, deterministic, and shared by construction.
// The chunk-advance shape (slice off four elements per step instead of
// indexing i..i+3) is what lets the prove pass eliminate every element
// bounds check on this toolchain; the per-chunk `q = q[:len(p)]`
// re-teaches it len(q) == len(p), which it forgets across the loop phi.
// scripts/check_bce.sh gates the elimination.
func sqDistL2(p, q []float64) float64 {
	q = q[:len(p)] // bounds-check elimination; callers guarantee equal length
	var s0, s1, s2, s3 float64
	for len(p) >= 4 {
		q = q[:len(p)]
		d0 := p[0] - q[0]
		d1 := p[1] - q[1]
		d2 := p[2] - q[2]
		d3 := p[3] - q[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		p, q = p[4:], q[4:]
	}
	q = q[:len(p)]
	for i, v := range p {
		d := v - q[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// Dist is shorthand for L2.Dist, the paper's default measure.
func Dist(p, q Point) float64 { return L2.Dist(p, q) }

// Mean returns the centroid of the given points. It panics on an empty
// input because a centroid of nothing is undefined.
func Mean(points []Point) Point {
	if len(points) == 0 {
		panic("vector: Mean of empty point set")
	}
	c := make(Point, len(points[0]))
	for _, p := range points {
		for i, v := range p {
			c[i] += v
		}
	}
	inv := 1 / float64(len(points))
	for i := range c {
		c[i] *= inv
	}
	return c
}
