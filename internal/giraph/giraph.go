// Package giraph implements the comparison baseline of Figure 19: a
// Pregel-style vertex-centric BSP engine with out-of-core support, as in
// Apache Giraph. Vertices are statically hash-partitioned across machines;
// each machine processes only its own vertices, spills adjacency lists and
// incoming messages to its local disk, and synchronizes at superstep
// barriers. There is no dynamic load balancing of any kind — the property
// whose absence the figure demonstrates.
//
// The engine runs real PageRank over real graph data on the same simulated
// cluster as Chaos, so the two systems' scaling curves are directly
// comparable (each normalized to its own single-machine runtime, as the
// paper does to factor out constant-factor engineering differences such as
// JVM overhead).
package giraph

import (
	"fmt"

	"chaos/internal/cluster"
	"chaos/internal/graph"
	"chaos/internal/sim"
)

// The baseline's fixed parameters.
const (
	// iterations is the number of PageRank supersteps.
	iterations = 5
	// bytesPerMessage models Giraph's message record size (vertex ID +
	// value plus object overhead; Giraph's Java object model makes this
	// considerably larger than Chaos's packed updates).
	bytesPerMessage = 16
	// spillFragmentation models the out-of-core message store's random
	// access pattern: incoming message batches from every peer
	// interleave across per-partition spill files, so the effective
	// spill bandwidth degrades with the number of senders. The paper
	// attributes much of out-of-core Giraph's slowdown to such
	// engineering issues (§10.2). Effective spill cost is multiplied by
	// (1 + spillFragmentation*(machines-1)).
	spillFragmentation = 0.15
	// seed drives placement randomness.
	seed = 1
)

// Owner returns the machine owning vertex v under random (hash)
// partitioning, Giraph's default.
func Owner(v graph.VertexID, machines int) int {
	h := uint64(v) * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return int(h % uint64(machines))
}

// Result summarizes a run.
type Result struct {
	Runtime    sim.Time
	Ranks      []float64
	MaxLoad    float64 // max over machines of per-superstep work share
	BytesMoved int64
}

// RunPageRank executes PageRank on the Giraph baseline and returns the
// runtime plus the computed ranks (validated against the same reference as
// Chaos).
func RunPageRank(spec cluster.Spec, edges []graph.Edge, numVertices uint64) (*Result, error) {
	if spec.Machines <= 0 {
		return nil, fmt.Errorf("giraph: invalid machine count")
	}
	nm := spec.Machines
	env := sim.NewEnv(seed)
	clu := cluster.New(env, spec)

	// Static partitioning: each machine owns the out-edges of its
	// vertices and receives the messages of its vertices.
	owner := make([]int, numVertices)
	degree := make([]uint32, numVertices)
	for v := range owner {
		owner[v] = Owner(graph.VertexID(v), nm)
	}
	machEdges := make([][]graph.Edge, nm)
	for _, e := range edges {
		degree[e.Src]++
		machEdges[owner[e.Src]] = append(machEdges[owner[e.Src]], e)
	}

	rank := make([]float64, numVertices)
	for i := range rank {
		rank[i] = 1
	}
	sums := make([]float64, numVertices)

	const edgeBytes = 8
	barrier := sim.NewBarrier(env, nm)
	res := &Result{}

	for i := 0; i < nm; i++ {
		i := i
		env.Spawn(fmt.Sprintf("giraph%d", i), func(p *sim.Proc) {
			me := clu.Machines[i]
			myEdges := machEdges[i]
			// Message bytes this machine will receive per superstep:
			// one message per in-edge of an owned vertex.
			var inMsgs int64
			for _, e := range edges {
				if owner[e.Dst] == i {
					inMsgs++
				}
			}
			for step := 0; step < iterations; step++ {
				// Compute phase: stream own adjacency from local
				// disk, emit one message per edge to the target's
				// owner. Out-of-core Giraph reads its edge store
				// and writes incoming messages to disk.
				me.Device.Use(p, int64(len(myEdges))*edgeBytes)
				me.CPU.Use(p, int64(len(myEdges)))
				perOwner := make([]int64, nm)
				for _, e := range myEdges {
					sums[e.Dst] += rank[e.Src] / float64(degree[e.Src])
					perOwner[owner[e.Dst]]++
				}
				for o, cnt := range perOwner {
					if cnt == 0 {
						continue
					}
					bytes := cnt * bytesPerMessage
					if o != i {
						// Egress charge; the receiver's spill is
						// charged below against its own budget.
						me.NICOut.Use(p, bytes)
					}
				}
				// Spill received messages to local disk, then read
				// them back for the apply; fragmentation across
				// per-partition stores grows with the sender count.
				frag := 1 + spillFragmentation*float64(nm-1)
				me.Device.Use(p, int64(float64(2*inMsgs*bytesPerMessage)*frag))
				barrier.Wait(p)
				// Apply phase for owned vertices (machine 0 also
				// folds the shared arrays exactly once).
				if i == 0 {
					for v := range rank {
						rank[v] = 0.15 + 0.85*sums[v]
						sums[v] = 0
					}
				}
				me.CPU.Use(p, int64(len(rank))/int64(nm)+1)
				barrier.Wait(p)
			}
		})
	}
	env.Run()
	if stuck := env.Stuck(); len(stuck) > 0 {
		env.Close()
		return nil, fmt.Errorf("giraph: stuck processes: %v", stuck)
	}
	env.Close()

	res.Runtime = env.Now()
	res.Ranks = rank
	res.BytesMoved = clu.BytesMoved()
	// Load imbalance: max per-machine edge share over the mean.
	maxEdges := 0
	for _, es := range machEdges {
		if len(es) > maxEdges {
			maxEdges = len(es)
		}
	}
	mean := float64(len(edges)) / float64(nm)
	if mean > 0 {
		res.MaxLoad = float64(maxEdges) / mean
	}
	return res, nil
}
