// Package xstream implements the single-machine comparison column of
// Table 1: an X-Stream-style edge-centric engine using streaming partitions
// with direct local I/O. It runs the same GAS programs as Chaos, through
// the same kernels (internal/core/drive): a third driver of that package,
// owning only its device charges. It differs from a one-machine Chaos
// deployment exactly where the paper says the two systems differ (§8):
// X-Stream issues direct, synchronous I/O against the local device with
// no client-server indirection, while Chaos routes every chunk through
// its storage-engine protocol to facilitate distribution. Table 1
// accordingly shows X-Stream somewhat faster on a single machine.
package xstream

import (
	"fmt"

	"chaos/internal/cluster"
	"chaos/internal/core/drive"
	"chaos/internal/gas"
	"chaos/internal/graph"
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
}

// maxIterations caps a run that does not converge.
const maxIterations = 1000

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
// algorithms streams faster than the device delivers. The kernels run
// inline on the one simulated process.
func Run[V, U, A any](cfg Config, prog gas.Program[V, U, A], edges graph.Source, numVertices uint64) (*Result[V], error) {
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 4 << 20
	}
	params := drive.Params{Machines: 1, MemBudget: cfg.MemBudget, ChunkBytes: cfg.ChunkBytes, MaxIterations: maxIterations}
	k, err := drive.Plan(params, prog, edges, numVertices)
	if err != nil {
		return nil, fmt.Errorf("xstream: %w", err)
	}
	np := k.Layout.NumPartitions
	edgeSize := k.EdgeFmt.EdgeSize()

	env := sim.NewEnv(1)
	spec := cfg.Spec
	spec.Machines = 1
	dev := cluster.New(env, spec).Machines[0].Device

	res := &Result[V]{}
	env.Spawn("xstream", func(p *sim.Proc) {
		// Pre-processing: one pass binning edges by source partition.
		dev.Use(p, int64(edges.Len()*edgeSize)) // read input
		parts := make([][][]byte, np)
		partBytes := make([]int64, np)
		bins := drive.NewWire(np, drive.SpillLimit(cfg.ChunkBytes, edgeSize), func(pi int, chunk []byte) {
			parts[pi] = append(parts[pi], chunk)
			partBytes[pi] += int64(len(chunk))
		})
		var deg [][]uint32
		if prog.NeedsDegrees() {
			deg = make([][]uint32, np)
		}
		edges.Range(0, edges.Len(), graph.NewScratch(), func(batch []graph.Edge) { k.BinEdges(batch, bins, deg) })
		bins.FlushPartials()
		for _, n := range partBytes {
			dev.Use(p, n) // write binned edge sets
		}

		// Vertex state per partition, resident on "disk" between uses.
		verts := make([][]V, np)
		accums := make([][]A, np)
		for pi := range verts {
			var d []uint32
			if deg != nil {
				d = deg[pi]
			}
			verts[pi] = k.InitVertices(pi, d)
			accums[pi] = make([]A, len(verts[pi]))
			dev.Use(p, k.VertexSetBytes(pi)) // write vertex set
		}

		// updates[pi] is the update set bound for partition pi, as the
		// arena slabs scatter shipped in source partition, chunk and
		// edge order; sent[pi] counts its records.
		updates := make([][][]drive.UpdRec[U], np)
		sent := make([]int64, np)
		ship := func(pi int, recs []drive.UpdRec[U]) {
			updates[pi] = append(updates[pi], recs)
			sent[pi] += int64(len(recs))
		}
		decider := k.NewDecider()
		var out drive.ScatterOut[U]
		for iter := 0; ; iter++ {
			// Scatter: stream each partition's edges sequentially.
			for pi, chunks := range parts {
				dev.Use(p, k.VertexSetBytes(pi)) // load vertices
				dev.Use(p, partBytes[pi])
				for _, chunk := range chunks {
					k.ScatterChunkTyped(iter, pi, verts[pi], chunk, &out)
					k.MergeScatter(&out, nil, nil, ship)
				}
			}
			// Write out the produced update sets.
			for _, n := range sent {
				dev.Use(p, n*int64(k.UpdBytes))
			}
			// Gather + apply per partition.
			for pi := range parts {
				dev.Use(p, k.VertexSetBytes(pi)) // load vertices
				acc := k.ResetAccums(accums[pi])
				dev.Use(p, sent[pi]*int64(k.UpdBytes)) // stream updates
				for _, recs := range updates[pi] {
					k.FoldUpdates(verts[pi], acc, recs)
					k.ReleaseRecs(recs)
				}
				decider.Changed.Add(k.ApplyVertices(iter, pi, verts[pi], acc))
				dev.Use(p, k.VertexSetBytes(pi)) // write back
				updates[pi], sent[pi] = updates[pi][:0], 0
			}
			res.Iterations = iter + 1
			if decider.Decide(iter).Done {
				break
			}
		}
		res.Values = k.CollectVertices(verts)
	})
	env.Run()
	env.Close()
	res.Runtime = env.Now()
	res.BytesMoved = dev.Bytes()
	return res, nil
}
