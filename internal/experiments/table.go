// The one declaration of every experiment: chaos-bench dispatches from
// it, the tests run it, and EXPERIMENTS.md's table is held to it
// (go test ./internal/experiments/ -update rewrites the doc's rows).

package experiments

import "io"

// Experiment declares one experiment of the evaluation.
type Experiment struct {
	// ID selects the experiment (chaos-bench -experiment).
	ID string
	// Paper is the paper reference and the banner label.
	Paper string
	// Title says what the experiment runs and plots.
	Title string
	// Claim is what the paper shows (the banner's "paper:" line).
	Claim string
	// Target is what the reproduction is expected to show.
	Target string

	run func(*report, Scale) error
}

// NativeID names the one experiment whose rows are host wall-clock:
// printed, never recorded.
const NativeID = "native"

// All lists every experiment in the order chaos-bench runs them: the
// paper's order, then the reproduction's own additions.
var All = []Experiment{
	{ID: "table1", Paper: "Table 1", run: table1, Title: "single-machine runtime, X-Stream vs Chaos",
		Claim:  "X-Stream faster on most algorithms; same order of magnitude (e.g. BFS 497s vs 594s)",
		Target: "all ten algorithms complete on both engines; Chaos pays a few percent for the client-server indirection (ratio just above 1)"},
	{ID: "fig5", Paper: "Figure 5", run: figure5, Title: "theoretical utilization vs machines, by batch factor k",
		Claim:  "k=5 stays above 99.3% for any cluster size; k=1 falls toward 1-1/e",
		Target: "Equation 4 evaluated exactly: every k falls monotonically toward its Equation 5 floor, k=5 never below 0.9933"},
	{ID: "fig7", Paper: "Figure 7", run: figure7, Title: "weak scaling, normalized runtime (RMAT base..base+5)",
		Claim:  "average 1.61x for a 32x larger problem on 32 machines; Cond ~0.97x, MCST ~2.29x",
		Target: "flat-ish curves, no super-linear blowup: mean normalized runtime at the largest cluster under 2x"},
	{ID: "fig8", Paper: "Figure 8", run: figure8, Title: "strong scaling, normalized runtime (fixed RMAT)",
		Claim:  "average ~13x speedup on 32 machines; Cond up to 23x, MCST ~8x",
		Target: "runtime falls monotonically with machines for every algorithm, with a sub-linear tail"},
	{ID: "fig9", Paper: "Figure 9", run: figure9, Title: "strong scaling, web graph, HDD (BFS, PR)",
		Claim:  "speedups of 20 (BFS) and 18.5 (PR) on 32 machines",
		Target: "monotone, sub-linear speedup for both algorithms on the skewed synthetic crawl"},
	{ID: "capacity", Paper: "Capacity (§9.3)", run: capacity, Title: "trillion-edge projection from measured I/O ratios",
		Claim:  "BFS a little over 9h (214 TB I/O), 5-iteration PR 19h (395 TB I/O) at ~7 GB/s aggregate",
		Target: "per-edge I/O measured at laboratory scale projects to hundreds of TB and 9-19 h, the paper's order of magnitude"},
	{ID: "fig10", Paper: "Figure 10", run: figure10, Title: "runtime vs machines for p in {8,12,16} cores",
		Claim:  "adequate performance with half the cores; minimum cores needed to sustain network throughput",
		Target: "half the cores cost under 1% on one machine; differences at larger clusters are the size of placement noise on these small graphs"},
	{ID: "fig11", Paper: "Figure 11", run: figure11, Title: "runtime with SSD vs HDD, normalized to 1-machine SSD",
		Claim:  "identical scaling; runtime inversely proportional to storage bandwidth (HDD ~2x slower)",
		Target: "HDD about 2x SSD runtime (the bandwidth ratio) with the same scaling shape"},
	{ID: "fig12", Paper: "Figure 12", run: figure12, Title: "runtime with 40GigE vs 1GigE, normalized to 1-machine",
		Claim:  "1GigE (slower than storage) breaks scaling: runtime grows with machines instead of holding flat",
		Target: "40 GigE runtime keeps falling with machines; 1 GigE barely improves on one machine (lab scale) or grows (quick scale)"},
	{ID: "fig13", Paper: "Figure 13", run: figure13, Title: "checkpointing overhead (BFS, PR)",
		Claim:  "under 6% despite writing the full vertex state at every barrier",
		Target: "overhead of a few percent averaged over five seeds; placement noise can push it slightly negative at these sizes"},
	{ID: "fig14", Paper: "Figure 14", run: figure14, Title: "aggregate bandwidth, normalized to 1 machine, vs theoretical max",
		Claim:  "bandwidth scales linearly with machines, within 3% of device maximum",
		Target: "near-linear aggregate bandwidth for every algorithm, below the theoretical maximum"},
	{ID: "fig15", Paper: "Figure 15", run: figure15, Title: "Chaos vs centralized chunk directory (weak scaling)",
		Claim:  "the centralized entity becomes a bottleneck: its runtime grows faster with machines",
		Target: "the central directory loses to randomized placement by a factor that grows with machines"},
	{ID: "fig16", Paper: "Figure 16", run: figure16, Title: "runtime vs batch factor phi*k (normalized to phi*k=10)",
		Claim:  "sweet spot at phi*k=10 (k=5, phi=2); small windows idle devices, huge windows add queueing",
		Target: "runtime falls as the window grows to 10 and is roughly flat beyond; our modeled stack has phi ≈ 1.1 vs the paper's ≈ 2, which shifts the window phi*k but not the story"},
	{ID: "fig17", Paper: "Figure 17", run: figure17, Title: "runtime breakdown (largest cluster, weak-scaled graph)",
		Claim:  "graph processing 74-87% (avg 83%), idle <4%, copy+merge up to 22% (avg 14%)",
		Target: "graph processing (own plus stolen partitions) dominates every algorithm and copy+merge stay at a few percent; barrier wait is larger than the paper's idle share at laboratory scale"},
	{ID: "fig18", Paper: "Figure 18", run: figure18, Title: "runtime vs stealing bias alpha, normalized to alpha=1",
		Claim:  "alpha=1 (the analytic criterion) is fastest; no stealing and always-steal both lose",
		Target: "alpha=1 is competitive — within a few percent of the best setting — and no stealing clearly loses"},
	{ID: "fig19", Paper: "Figure 19", run: figure19, Title: "Chaos vs Giraph, PR strong scaling, each self-normalized",
		Claim:  "static partitioning caps Giraph's scalability; Chaos scales much closer to linear",
		Target: "Chaos's self-normalized speedup exceeds the Giraph model's (`internal/giraph`) at every cluster size above one"},
	{ID: "fig20", Paper: "Figure 20", run: figure20, Title: "rebalance time / grid partitioning time",
		Claim:  "dynamic load balancing costs about a tenth of up-front grid partitioning",
		Target: "worst-case rebalance time about a tenth or less of the grid partitioning model's (`internal/gridpart`) for every algorithm"},
	{ID: NativeID, Paper: "native", run: nativeVsDES, Title: "native execution plane vs DES driver (host wall-clock)",
		Claim:  "no figure; reproduction performance record (DESIGN.md, Two planes one protocol)",
		Target: "native wall-clock at or under the DES driver's on the same graphs; the experiment fails otherwise, and its exit status, not the figure record, is what CI reads"},
	{ID: "abl-combiners", Paper: "Ablation: combiners", run: ablationCombiner, Title: "Pregel-style update aggregation (§11.1)",
		Claim:  "merging cost outweighs the traffic reduction; Chaos ships raw updates",
		Target: "not reproduced at lab/quick scale, model under review (ROADMAP, \"The reproduction is a test\"): combining wins on simulated time for all four algorithms at quick scale (0.80-0.93x) and for all but PR (1.20x) at lab scale"},
	{ID: "abl-compaction", Paper: "Ablation: edge rewriting", run: ablationCompaction, Title: "MCST with Borůvka edge compaction (§6.1 extended model)",
		Claim:  "the footnoted extension: rewritten edge sets shrink later iterations' I/O",
		Target: "rewriting reads fewer bytes at every cluster size; runtime moves by under 10% either way at these sizes"},
	{ID: "abl-replication", Paper: "Ablation: vertex replication", run: ablationReplication, Title: "vertex-set mirroring (§6.6)",
		Claim:  "\"support could easily be added by replicating the vertex sets\": the overhead of doing so",
		Target: "mirrored runs complete; runtime overhead of 5-7% at lab scale, within placement noise (either sign) at quick scale"},
	{ID: "abl-partitions", Paper: "Ablation: partition count", run: ablationPartitionCount, Title: "streaming-partition multiple k (§3 trade-off)",
		Claim:  "few large partitions stream best but balance worst; many small partitions invert the trade",
		Target: "runtime rises gently with k (smaller partitions stream worse); steal counts and barrier share show no monotone trend at these sizes"},
}

// IDs lists the experiment ids in table order.
func IDs() []string {
	ids := make([]string, len(All))
	for i, e := range All {
		ids[i] = e.ID
	}
	return ids
}

// Run prints the experiment's banner and rows to w and returns the rows.
func (e Experiment) Run(w io.Writer, s Scale) (Figure, error) {
	r := &report{w: w, fig: Figure{ID: e.ID}}
	r.header(e)
	err := e.run(r, s)
	return r.fig, err
}
