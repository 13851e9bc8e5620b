// Package xstream implements the single-machine comparison column of
// Table 1: an X-Stream-style edge-centric engine using streaming partitions
// with direct local I/O. Running the same GAS programs as Chaos, it differs
// from a one-machine Chaos deployment exactly where the paper says the two
// systems differ (§8): X-Stream issues direct, synchronous I/O against the
// local device with no client-server indirection, while Chaos routes every
// chunk through its storage-engine protocol to facilitate distribution.
// Table 1 accordingly shows X-Stream somewhat faster on a single machine.
package xstream

import (
	"fmt"

	"chaos/internal/cluster"
	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/partition"
	"chaos/internal/sim"
)

// Config parameterizes a single-machine X-Stream run.
type Config struct {
	// Spec supplies the device parameters (only one machine is used).
	Spec cluster.Spec
	// ChunkBytes is the streaming block size.
	ChunkBytes int
	// MemBudget bounds a streaming partition's vertex set (§3); zero
	// means one partition.
	MemBudget int64
	// MaxIterations caps the loop (0 = 1000).
	MaxIterations int
}

// Result carries the outcome of a run.
type Result[V any] struct {
	Values     []V
	Runtime    sim.Time
	Iterations int
	BytesMoved int64
}

// Run executes prog over edges on a single machine with direct I/O.
// X-Stream overlaps computation with streaming I/O through multiple
// in-flight buffers, so the modeled time is the I/O time; CPU work on these
// algorithms streams faster than the device delivers.
func Run[V, U, A any](cfg Config, prog gas.Program[V, U, A], edges []graph.Edge, numVertices uint64) (*Result[V], error) {
	numVertices, err := graph.VertexCount(graph.Edges(edges), numVertices)
	if err != nil {
		return nil, fmt.Errorf("xstream: %w", err)
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 4 << 20
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 1000
	}
	vcodec := prog.VertexCodec()
	ucodec := prog.UpdateCodec()
	memBudget := cfg.MemBudget
	if memBudget <= 0 {
		memBudget = int64(numVertices+1) * int64(vcodec.Bytes)
	}
	layout, err := partition.NewLayout(numVertices, 1, int64(vcodec.Bytes), memBudget)
	if err != nil {
		return nil, err
	}
	edgeFmt := graph.FormatFor(numVertices, prog.Weighted())
	idBytes := 4
	if numVertices >= 1<<32 {
		idBytes = 8
	}
	updBytes := idBytes + ucodec.Bytes

	env := sim.NewEnv(1)
	spec := cfg.Spec
	spec.Machines = 1
	clu := cluster.New(env, spec)
	dev := clu.Machines[0].Device

	res := &Result[V]{}
	env.Spawn("xstream", func(p *sim.Proc) {
		// Pre-processing: one pass binning edges by source partition.
		edgeSize := edgeFmt.EdgeSize()
		dev.Use(p, int64(len(edges)*edgeSize)) // read input
		parts := layout.BinEdges(edges)
		for _, es := range parts {
			dev.Use(p, int64(len(es)*edgeSize)) // write binned edge sets
		}

		// Vertex state per partition, resident on "disk" between uses.
		verts := make([][]V, layout.NumPartitions)
		var degrees [][]uint32
		if prog.NeedsDegrees() {
			degrees = make([][]uint32, layout.NumPartitions)
			for pi := range degrees {
				degrees[pi] = make([]uint32, layout.Size(pi))
			}
			for _, e := range edges {
				pi := layout.Of(e.Src)
				lo, _ := layout.Range(pi)
				degrees[pi][e.Src-lo]++
			}
		}
		for pi := range verts {
			lo, hi := layout.Range(pi)
			vs := make([]V, hi-lo)
			for i := range vs {
				var d uint32
				if degrees != nil {
					d = degrees[pi][i]
				}
				prog.Init(lo+graph.VertexID(i), &vs[i], d)
			}
			verts[pi] = vs
			dev.Use(p, int64(len(vs)*vcodec.Bytes)) // write vertex set
		}

		updates := make([][]struct {
			dst graph.VertexID
			val U
		}, layout.NumPartitions)

		for iter := 0; iter < cfg.MaxIterations; iter++ {
			// Scatter: stream each partition's edges sequentially.
			for pi := range parts {
				dev.Use(p, int64(len(verts[pi])*vcodec.Bytes)) // load vertices
				lo, _ := layout.Range(pi)
				dev.Use(p, int64(len(parts[pi])*edgeSize))
				for _, e := range parts[pi] {
					dst, val, emit := prog.Scatter(iter, e, &verts[pi][e.Src-lo])
					if !emit {
						continue
					}
					tp := layout.Of(dst)
					updates[tp] = append(updates[tp], struct {
						dst graph.VertexID
						val U
					}{dst, val})
				}
			}
			// Write out the produced update sets.
			for _, us := range updates {
				dev.Use(p, int64(len(us)*updBytes))
			}
			// Gather + apply per partition.
			var changed uint64
			for pi := range parts {
				dev.Use(p, int64(len(verts[pi])*vcodec.Bytes)) // load vertices
				lo, _ := layout.Range(pi)
				accums := make([]A, len(verts[pi]))
				for i := range accums {
					accums[i] = prog.InitAccum()
				}
				dev.Use(p, int64(len(updates[pi])*updBytes)) // stream updates
				for _, u := range updates[pi] {
					accums[u.dst-lo] = prog.Gather(accums[u.dst-lo], u.val, &verts[pi][u.dst-lo])
				}
				for i := range verts[pi] {
					if prog.Apply(iter, lo+graph.VertexID(i), &verts[pi][i], accums[i]) {
						changed++
					}
				}
				dev.Use(p, int64(len(verts[pi])*vcodec.Bytes)) // write back
				updates[pi] = updates[pi][:0]
			}
			res.Iterations = iter + 1
			if prog.Converged(iter, changed) {
				break
			}
		}

		// Assemble final values.
		out := make([]V, numVertices)
		for pi := range verts {
			lo, _ := layout.Range(pi)
			copy(out[lo:], verts[pi])
		}
		res.Values = out
	})
	env.Run()
	env.Close()
	res.Runtime = env.Now()
	res.BytesMoved = dev.Bytes()
	return res, nil
}
