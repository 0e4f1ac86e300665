// Package stats defines the measurement vocabulary of the paper's
// evaluation (§6): per-phase running time, distance-computation
// selectivity (Equation 13), shuffling cost in bytes, and replication of
// S — plus small helpers for descriptive statistics and aligned text
// tables used by the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Phase is one timed stage of a join pipeline. The paper's Figure 6
// decomposes PGBJ into pivot selection, data partitioning, index merging,
// partition grouping, and the kNN join itself.
type Phase struct {
	Name string
	Wall time.Duration
}

// JobStat holds one MapReduce job's measured actuals: the per-job
// breakdown of the aggregate shuffle and distance-computation counters a
// Report carries. Every algorithm records one entry per job it runs, in
// execution order, so callers of the public API can see exactly where
// shuffle bytes and distance computations were spent — and so the
// planner's per-job predictions are falsifiable against them.
type JobStat struct {
	// Name is the job's name ("pgbj-join", "knn-merge", ...).
	Name string
	// ShuffleRecords and ShuffleBytes are the records and key+value bytes
	// that crossed this job's shuffle (zero for map-only jobs).
	ShuffleRecords int64
	ShuffleBytes   int64
	// DistComps is the job's "pairs" counter: distance computations
	// performed by its map and reduce tasks, per the Equation-13 note.
	DistComps int64
	// SpilledBytes counts shuffle bytes written to run files on disk by
	// the out-of-core backend (zero on the in-memory backend).
	SpilledBytes int64
	// Wall is the job's map plus reduce wall time.
	Wall time.Duration
	// MapWall and ReduceWall split Wall into the job's phases: map (for
	// distributed jobs, first task dispatch through the last map
	// commit — the shuffle's run files are written inside the map
	// tasks) and reduce (merge through the last reduce commit). They
	// show where a job's time went, not just its total; map-only jobs
	// leave ReduceWall zero.
	MapWall    time.Duration
	ReduceWall time.Duration
	// WorkerTasks counts task attempts committed by separate worker
	// processes — zero on the in-process engine, and at least the
	// job's task count when it ran distributed (more after recovery
	// re-executions).
	WorkerTasks int
	// ReexecutedAttempts counts task attempts re-dispatched after a
	// worker's lease expired or its output was found damaged; zero on
	// the in-process engine and on fault-free distributed runs.
	ReexecutedAttempts int64
	// ReduceGroups counts the key groups the job's reduce tasks
	// streamed, and LoadedReducers the reduce tasks that received at
	// least one record. They are equal when every loaded reducer holds
	// one group, the shape in which a reducer's remaining-record count
	// (mapreduce.Values.Remaining) is its group's exact size.
	ReduceGroups   int64
	LoadedReducers int
}

// PlanInfo records the configuration a run with Algorithm Auto resolved
// to, and why.
type PlanInfo struct {
	// Algorithm, NumPivots, PivotStrategy and GroupStrategy are the
	// chosen configuration (the last three are empty for algorithms
	// without pivots).
	Algorithm     string
	NumPivots     int
	PivotStrategy string
	GroupStrategy string
	// Why is the rule's one-line reason.
	Why string
}

// String renders the chosen configuration and its reason on one line.
func (p *PlanInfo) String() string {
	cfg := p.Algorithm
	if p.NumPivots > 0 {
		cfg = fmt.Sprintf("%s pivots=%d/%s/%s", p.Algorithm, p.NumPivots, p.PivotStrategy, p.GroupStrategy)
	}
	return fmt.Sprintf("plan %s: %s", cfg, p.Why)
}

// Report aggregates everything one join run measures.
type Report struct {
	Algorithm string
	K         int
	RSize     int
	SSize     int
	Dims      int
	Nodes     int

	// Pairs counts distance computations between objects, including
	// object–pivot distances, per the paper's note under Equation 13.
	Pairs int64
	// AssignCharged is the share of Pairs charged for nearest-pivot
	// assignment in the Voronoi partitioning job — |P| per object, the
	// paper's cost — and AssignEvaluated the object–pivot distances the
	// pruned scan (voronoi.Partitioner.AssignEvaluated) really computed
	// for it. Both are exact per seed and identical across transports,
	// spill modes and node counts; both are zero for algorithms without
	// pivots.
	AssignCharged   int64
	AssignEvaluated int64
	// ReducerPivotCharged is the share of Pairs charged for the join
	// reducers' object–pivot distances |r,p_j| — one per (R row,
	// S-partition) of a reduce group — and ReducerPivotEvaluated the
	// ones they computed; the rest the pivot gap ruled out
	// (voronoi.Walk.GapPrunes). Both are exact per seed and identical
	// across transports and spill modes; both are zero for algorithms
	// without pivot walks.
	ReducerPivotCharged   int64
	ReducerPivotEvaluated int64
	// ShuffleBytes and ShuffleRecords total across all MapReduce jobs.
	ShuffleBytes   int64
	ShuffleRecords int64
	// ReplicasS counts S-object copies sent to reducers; ReplicasS/SSize
	// is the paper's "average replication of S" (Figure 7b).
	ReplicasS int64
	// SimMakespan is the deterministic simulated parallel cost: the sum
	// over phases of the per-phase max work assigned to one node.
	SimMakespan int64
	// JoinSkew is the max-over-mean reduce-task input of the main join
	// job: 1 is perfect balance, and the slowest reducer's load — the
	// job's critical path — grows with it. This quantifies the §6.1.1
	// "unbalanced workload" discussion.
	JoinSkew float64
	// OutputPairs is the number of (r, neighbor) result pairs.
	OutputPairs int64

	Phases []Phase

	// Jobs holds the per-MapReduce-job actuals in execution order; the
	// aggregate counters above sum over it (plus driver-side work such as
	// pivot selection, which belongs to no job).
	Jobs []JobStat

	// Plan is set when the run's configuration was chosen by Algorithm
	// Auto's rule; nil for hand-picked runs.
	Plan *PlanInfo
}

// AddJob appends one job's measured actuals.
func (r *Report) AddJob(j JobStat) {
	r.Jobs = append(r.Jobs, j)
}

// AddPhase appends a timed phase.
func (r *Report) AddPhase(name string, wall time.Duration) {
	r.Phases = append(r.Phases, Phase{Name: name, Wall: wall})
}

// PhaseWall returns the recorded wall time of the named phase, or zero.
func (r *Report) PhaseWall(name string) time.Duration {
	for _, p := range r.Phases {
		if p.Name == name {
			return p.Wall
		}
	}
	return 0
}

// TotalWall sums all phase wall times.
func (r *Report) TotalWall() time.Duration {
	var t time.Duration
	for _, p := range r.Phases {
		t += p.Wall
	}
	return t
}

// Selectivity implements Equation 13: computed pairs over |R|·|S|, as a
// fraction (multiply by 1000 for the paper's "per thousand" axis).
func (r *Report) Selectivity() float64 {
	if r.RSize == 0 || r.SSize == 0 {
		return 0
	}
	return float64(r.Pairs) / (float64(r.RSize) * float64(r.SSize))
}

// AvgReplication returns the average number of copies of each S object
// shipped to reducers (Figure 7b's y-axis).
func (r *Report) AvgReplication() float64 {
	if r.SSize == 0 {
		return 0
	}
	return float64(r.ReplicasS) / float64(r.SSize)
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s k=%d |R|=%d |S|=%d dims=%d nodes=%d wall=%v sel=%.4f‰ shuffle=%s repl=%.2f",
		r.Algorithm, r.K, r.RSize, r.SSize, r.Dims, r.Nodes,
		r.TotalWall().Round(time.Millisecond), r.Selectivity()*1000,
		FormatBytes(r.ShuffleBytes), r.AvgReplication())
}

// byteUnits maps every accepted (upper-cased) unit suffix to its
// multiplier. All units are binary, so "KB" is an alias of "KiB" — the
// convention FormatBytes emits.
var byteUnits = map[string]int64{
	"": 1, "B": 1,
	"K": 1 << 10, "KB": 1 << 10, "KIB": 1 << 10,
	"M": 1 << 20, "MB": 1 << 20, "MIB": 1 << 20,
	"G": 1 << 30, "GB": 1 << 30, "GIB": 1 << 30,
	"T": 1 << 40, "TB": 1 << 40, "TIB": 1 << 40,
}

// ParseBytes parses a human byte count: a plain non-negative integer, or
// an integer (or decimal) with a binary unit K/M/G/T, case-insensitive,
// with an optional trailing "iB"/"B" ("64M", "1.5GiB", "4096"). Spaces
// around the number and unit are ignored ("16 MiB"). The inverse of
// FormatBytes for CLI flags like -mem-limit.
//
// The whole suffix must be a valid unit: malformed inputs whose trailing
// letters merely contain unit-like fragments ("5ib", "7b k") are
// rejected rather than silently read as a bare number.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	// Split into the longest leading number and the unit suffix.
	cut := 0
	for cut < len(t) && (t[cut] == '.' || ('0' <= t[cut] && t[cut] <= '9')) {
		cut++
	}
	unit := strings.ToUpper(strings.TrimSpace(t[cut:]))
	mult, ok := byteUnits[unit]
	if !ok {
		return 0, fmt.Errorf("stats: bad byte count %q (unknown unit %q)", s, t[cut:])
	}
	v, err := strconv.ParseFloat(t[:cut], 64)
	if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) ||
		v*float64(mult) >= math.MaxInt64 {
		return 0, fmt.Errorf("stats: bad byte count %q", s)
	}
	return int64(v * float64(mult)), nil
}

// FormatBytes renders a byte count with a binary suffix.
func FormatBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%dB", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.2f%ciB", float64(b)/float64(div), "KMGTPE"[exp])
}

// Describe holds the descriptive statistics the paper's Tables 2 and 3
// report for partition and group sizes.
type Describe struct {
	Min, Max int
	Avg, Dev float64
}

// DescribeInts computes min/max/mean/standard deviation of xs. The
// standard deviation is the population deviation, matching the tables.
func DescribeInts(xs []int) Describe {
	if len(xs) == 0 {
		return Describe{}
	}
	d := Describe{Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		if x < d.Min {
			d.Min = x
		}
		if x > d.Max {
			d.Max = x
		}
		sum += float64(x)
	}
	d.Avg = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		diff := float64(x) - d.Avg
		sq += diff * diff
	}
	d.Dev = math.Sqrt(sq / float64(len(xs)))
	return d
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by nearest-rank; xs
// need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[len(cp)-1]
	}
	idx := int(math.Ceil(q*float64(len(cp)))) - 1
	if idx < 0 {
		idx = 0
	}
	return cp[idx]
}

// Table renders rows as an aligned text table with a header, the output
// format of the experiment harness (mirroring the paper's tables).
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells, stringifying each value.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = FormatFloat(v)
		case time.Duration:
			row[i] = v.Round(time.Millisecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: integers without decimals, small
// magnitudes with enough precision to be meaningful.
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return fmt.Sprint(v)
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - len([]rune(c)); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
