package planner

import "knnjoin/internal/stats"

// MeasuredScore re-scores a finished run of the named algorithm with the
// ranking's own score, its measured work standing in for the
// prediction: the run's MapReduce jobs, its distance computations
// (Pairs), shuffle bytes, S replicas and spilled bytes, and for the
// slowest reducer Pairs/Nodes scaled by the measured join skew.
// BruteForce and H-BRJ pay the scalar distance price, as their cost
// functions charge it.
func MeasuredScore(algo string, st *stats.Report, ds *DataStats, opts Options) float64 {
	opts = opts.withDefaults()
	p := Prediction{
		Jobs:            len(st.Jobs),
		ShuffleRecords:  st.ShuffleRecords,
		ShuffleBytes:    st.ShuffleBytes,
		ReplicasS:       st.ReplicasS,
		DistComps:       st.Pairs,
		MaxReducerComps: int64(float64(st.Pairs) / float64(opts.Nodes) * st.JoinSkew),
	}
	for _, j := range st.Jobs {
		p.SpillBytes += j.SpilledBytes
	}
	return score(p, ds, opts, opts.Nodes, algo == "bruteforce" || algo == "hbrj")
}
