// Package setsim implements the parallel set-similarity join of Vernica,
// Carey and Li (SIGMOD'10) — reference [16] of the paper, whose related
// work notes the technique answers a *different* problem than the kNN
// join ("due to the different problem definitions, it is not applicable
// to extend their techniques to solve our problem"). It is implemented
// here in full to make that §7 comparison runnable: same MapReduce
// engine, different join semantics — all record pairs whose Jaccard
// similarity reaches a threshold, rather than each record's k nearest.
//
// The three stages follow the paper's self-join pipeline:
//
//  1. Token ordering: one MapReduce job counts token frequencies; the
//     driver sorts tokens by ascending frequency (rarest first), which
//     minimizes prefix sizes in stage 2.
//  2. RID-pair generation: each record is projected onto its prefix —
//     the first |x| − ⌈t·|x|⌉ + 1 tokens in the global order, enough
//     that any two records with Jaccard ≥ t share a prefix token — and
//     routed to one reducer per prefix token. Reducers verify candidate
//     pairs (length filter, then exact Jaccard) and emit qualifying
//     pairs.
//  3. Deduplication: a pair that shares several prefix tokens is found
//     several times; a final job groups by canonical pair key and emits
//     each once.
package setsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"knnjoin/internal/codec"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/stats"
)

// Record is one set-valued object: an ID and its token set.
type Record struct {
	ID     int64
	Tokens []int32
}

// SimPair is one join result: two record IDs and their Jaccard similarity.
type SimPair struct {
	A, B int64
	Sim  float64
}

// Options configures a set-similarity self-join.
type Options struct {
	// Threshold is the Jaccard similarity bound, in (0, 1].
	Threshold float64
}

func (o Options) validate() error {
	if o.Threshold <= 0 || o.Threshold > 1 {
		return fmt.Errorf("setsim: threshold must be in (0, 1], got %g", o.Threshold)
	}
	return nil
}

// Jaccard returns |a∩b| / |a∪b| for two token sets sorted ascending.
func Jaccard(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	var inter int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// prefixLen is the prefix-filter length for a set of size n at threshold
// t: two sets with Jaccard ≥ t must share a token within their first
// n − ⌈t·n⌉ + 1 tokens under any common global order.
func prefixLen(n int, t float64) int {
	if n == 0 {
		return 0
	}
	p := n - int(math.Ceil(t*float64(n))) + 1
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	return p
}

// ---- wire format -----------------------------------------------------

// EncodeRecord returns the wire form of r.
func EncodeRecord(r Record) []byte {
	dst := make([]byte, 0, 12+4*len(r.Tokens))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.ID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Tokens)))
	for _, tok := range r.Tokens {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(tok))
	}
	return dst
}

// DecodeRecord parses a Record produced by EncodeRecord.
func DecodeRecord(b []byte) (Record, error) {
	if len(b) < 12 {
		return Record{}, fmt.Errorf("setsim: record truncated: %d bytes", len(b))
	}
	r := Record{ID: int64(binary.LittleEndian.Uint64(b))}
	n := int(binary.LittleEndian.Uint32(b[8:]))
	if n < 0 || len(b) < 12+4*n {
		return Record{}, fmt.Errorf("setsim: record truncated: n=%d, have %d bytes", n, len(b))
	}
	r.Tokens = make([]int32, n)
	for i := 0; i < n; i++ {
		r.Tokens[i] = int32(binary.LittleEndian.Uint32(b[12+4*i:]))
	}
	return r, nil
}

// EncodeSimPair returns the wire form of p.
func EncodeSimPair(p SimPair) []byte {
	dst := make([]byte, 0, 24)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.A))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.B))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Sim))
}

// DecodeSimPair parses a SimPair produced by EncodeSimPair.
func DecodeSimPair(b []byte) (SimPair, error) {
	if len(b) < 24 {
		return SimPair{}, fmt.Errorf("setsim: pair truncated: %d bytes", len(b))
	}
	return SimPair{
		A:   int64(binary.LittleEndian.Uint64(b)),
		B:   int64(binary.LittleEndian.Uint64(b[8:])),
		Sim: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
	}, nil
}

// ToDFS writes records to the cluster's file system, reporting the
// store's write error (nil for the in-memory store).
func ToDFS(fs dfs.Store, name string, records []Record) error {
	recs := make([]dfs.Record, len(records))
	for i, r := range records {
		recs[i] = EncodeRecord(r)
	}
	return fs.Write(name, recs)
}

// Run executes the self-join on the cluster: every unordered record pair
// with Jaccard ≥ opts.Threshold. inFile must hold records written by
// ToDFS; outFile receives one EncodeSimPair per qualifying pair with
// A < B. The returned pairs are sorted by (A, B).
func Run(cluster *mapreduce.Cluster, inFile, outFile string, opts Options) ([]SimPair, *stats.Report, error) {
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	report := &stats.Report{
		Algorithm: "set-similarity",
		Nodes:     cluster.Nodes(),
		RSize:     cluster.FS().Size(inFile),
		SSize:     cluster.FS().Size(inFile),
	}

	// ---- Stage 1: token ordering ----------------------------------------
	countFile := outFile + ".tokencount"
	countJob := &mapreduce.Job{
		Name:   "setsim-token-count",
		Input:  []string{inFile},
		Output: countFile,
		Map: func(_ *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
			r, err := DecodeRecord(rec)
			if err != nil {
				return err
			}
			for _, tok := range r.Tokens {
				emit(codec.Uint32Key(uint32(tok)), []byte{1})
			}
			return nil
		},
		Combine: sumCounts,
		Reduce:  sumCounts,
	}
	if _, err := driver.RunJob(cluster, report, "Token Ordering", countJob); err != nil {
		return nil, nil, err
	}
	rankOf, err := tokenRanks(cluster.FS(), countFile)
	cluster.FS().Remove(countFile)
	if err != nil {
		return nil, nil, err
	}

	// ---- Stage 2: RID-pair generation ------------------------------------
	pairFile := outFile + ".pairs"
	pairJob := &mapreduce.Job{
		Name:   "setsim-rid-pairs",
		Input:  []string{inFile},
		Output: pairFile,
		Side:   map[string]any{"ranks": rankOf, "opts": opts},
		Map: func(ctx *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
			rankOf := ctx.Side("ranks").(map[int32]int32)
			opts := ctx.Side("opts").(Options)
			r, err := DecodeRecord(rec)
			if err != nil {
				return err
			}
			// Re-express the token set in global-rank space, rarest first;
			// verification downstream is plain Jaccard, which any bijective
			// re-tokenization preserves.
			ranked := make([]int32, len(r.Tokens))
			for i, tok := range r.Tokens {
				ranked[i] = rankOf[tok]
			}
			sort.Slice(ranked, func(a, b int) bool { return ranked[a] < ranked[b] })
			wire := EncodeRecord(Record{ID: r.ID, Tokens: ranked})
			for _, tok := range ranked[:prefixLen(len(ranked), opts.Threshold)] {
				emit(codec.Uint32Key(uint32(tok)), wire)
				ctx.Counter("replicas_s", 1)
			}
			return nil
		},
		Reduce: verifyReduce,
	}
	js, err := driver.RunJob(cluster, report, "RID-Pair Generation", pairJob)
	if err != nil {
		return nil, nil, err
	}
	report.JoinSkew = js.ReduceSkew()

	// ---- Stage 3: deduplication ------------------------------------------
	dedupJob := &mapreduce.Job{
		Name:   "setsim-dedup",
		Input:  []string{pairFile},
		Output: outFile,
		Map: func(_ *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
			p, err := DecodeSimPair(rec)
			if err != nil {
				return err
			}
			key := codec.AppendInt64Key(codec.Int64Key(p.A), p.B)
			emit(key, rec)
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, _ []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
			v, _ := values.Next()
			emit(nil, v)
			ctx.Counter("result_pairs", 1)
			return nil
		},
	}
	_, err = driver.RunJob(cluster, report, "Deduplication", dedupJob)
	cluster.FS().Remove(pairFile)
	if err != nil {
		return nil, nil, err
	}

	pairs, err := ReadPairs(cluster.FS(), outFile)
	if err != nil {
		return nil, nil, err
	}
	return pairs, report, nil
}

// sumCounts folds token occurrence counts; it serves as both combiner
// and reducer of stage 1.
func sumCounts(_ *mapreduce.TaskContext, key []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	var total uint64
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		if len(v) == 1 {
			total += uint64(v[0]) // raw map emission
			continue
		}
		total += binary.LittleEndian.Uint64(v[4:]) // combined [token|count] record
	}
	out := make([]byte, 12)
	binary.LittleEndian.PutUint32(out, codec.KeyUint32(key))
	binary.LittleEndian.PutUint64(out[4:], total)
	emit(key, out)
	return nil
}

// tokenRanks reads stage 1's output and assigns each token its rank in
// ascending frequency order (ties by token for determinism).
func tokenRanks(fs dfs.Store, name string) (map[int32]int32, error) {
	recs, err := fs.Read(name)
	if err != nil {
		return nil, err
	}
	type tokCount struct {
		tok   int32
		count uint64
	}
	counts := make([]tokCount, len(recs))
	for i, rec := range recs {
		if len(rec) < 12 {
			return nil, fmt.Errorf("setsim: token count record truncated")
		}
		counts[i] = tokCount{
			tok:   int32(binary.LittleEndian.Uint32(rec)),
			count: binary.LittleEndian.Uint64(rec[4:]),
		}
	}
	sort.Slice(counts, func(a, b int) bool {
		if counts[a].count != counts[b].count {
			return counts[a].count < counts[b].count
		}
		return counts[a].tok < counts[b].tok
	})
	ranks := make(map[int32]int32, len(counts))
	for i, tc := range counts {
		ranks[tc.tok] = int32(i)
	}
	return ranks, nil
}

// verifyReduce handles one prefix-token group: every record pair in it is
// a candidate; the length filter drops hopeless pairs before the exact
// Jaccard verification. Only the group of the pair's FIRST shared prefix
// token could emit it, but re-deriving that is costlier than stage 3's
// dedup, which Vernica et al. choose too.
func verifyReduce(ctx *mapreduce.TaskContext, _ []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	opts := ctx.Side("opts").(Options)
	t := opts.Threshold
	var recs []Record
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		r, err := DecodeRecord(v)
		if err != nil {
			return err
		}
		recs = append(recs, r)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].ID < recs[b].ID })
	var verified int64
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			a, b := recs[i], recs[j]
			if a.ID == b.ID {
				continue
			}
			// Length filter: Jaccard ≥ t requires t·|a| ≤ |b| ≤ |a|/t.
			la, lb := float64(len(a.Tokens)), float64(len(b.Tokens))
			if lb < t*la || la < t*lb {
				continue
			}
			verified++
			if sim := Jaccard(a.Tokens, b.Tokens); sim >= t {
				emit(nil, EncodeSimPair(SimPair{A: a.ID, B: b.ID, Sim: sim}))
			}
		}
	}
	ctx.Counter("pairs", verified)
	ctx.AddWork(verified)
	return nil
}

// ReadPairs decodes a pair file written by Run, sorted by (A, B).
func ReadPairs(fs dfs.Store, name string) ([]SimPair, error) {
	recs, err := fs.Read(name)
	if err != nil {
		return nil, err
	}
	out := make([]SimPair, len(recs))
	for i, rec := range recs {
		p, err := DecodeSimPair(rec)
		if err != nil {
			return nil, fmt.Errorf("setsim: pair record %d: %w", i, err)
		}
		out[i] = p
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].A != out[b].A {
			return out[a].A < out[b].A
		}
		return out[a].B < out[b].B
	})
	return out, nil
}

// BruteForce computes the exact self-join centrally for verification.
// Token sets need not be sorted. Pairs are returned with A < B, sorted.
func BruteForce(records []Record, threshold float64) []SimPair {
	sorted := make([][]int32, len(records))
	for i, r := range records {
		cp := append([]int32(nil), r.Tokens...)
		sort.Slice(cp, func(a, b int) bool { return cp[a] < cp[b] })
		sorted[i] = cp
	}
	var out []SimPair
	for i := 0; i < len(records); i++ {
		for j := i + 1; j < len(records); j++ {
			if records[i].ID == records[j].ID {
				continue
			}
			if sim := Jaccard(sorted[i], sorted[j]); sim >= threshold {
				a, b := records[i].ID, records[j].ID
				if a > b {
					a, b = b, a
				}
				out = append(out, SimPair{A: a, B: b, Sim: sim})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].A != out[b].A {
			return out[a].A < out[b].A
		}
		return out[a].B < out[b].B
	})
	return out
}

// Baskets generates n market-basket records: token frequencies follow a
// Zipf-like law over a vocabulary, set sizes are uniform in [minLen,
// maxLen], and a fraction of records are near-duplicates of an earlier
// record (one token swapped) so joins at high thresholds have hits.
func Baskets(n, vocab, minLen, maxLen int, dupFrac float64, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(vocab-1))
	out := make([]Record, 0, n)
	draw := func() Record {
		size := minLen + rng.Intn(maxLen-minLen+1)
		seen := make(map[int32]bool, size)
		toks := make([]int32, 0, size)
		for len(toks) < size {
			tok := int32(zipf.Uint64())
			if !seen[tok] {
				seen[tok] = true
				toks = append(toks, tok)
			}
		}
		return Record{ID: int64(len(out)), Tokens: toks}
	}
	fresh := int32(vocab) // outside the Zipf vocabulary, unique per use
	for i := 0; i < n; i++ {
		if i > 0 && rng.Float64() < dupFrac {
			src := out[rng.Intn(len(out))]
			toks := append([]int32(nil), src.Tokens...)
			toks[rng.Intn(len(toks))] = fresh
			fresh++
			out = append(out, Record{ID: int64(len(out)), Tokens: toks})
			continue
		}
		out = append(out, draw())
	}
	return out
}
