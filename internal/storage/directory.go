package storage

import "math/rand"

// Directory is the centralized chunk-location service used by the Figure 15
// baseline. Chaos itself deliberately has no such component — computation
// engines pick storage engines uniformly at random — but the paper
// evaluates a design where "all read and writes go through the centralized
// entity, which maintains a directory of where each chunk of each vertex,
// edge or update set is located", and shows it becoming a bottleneck.
//
// The Directory is pure bookkeeping; the simulation layer routes every
// request through a single directory process whose service time provides
// the serialization the experiment measures.
type Directory struct {
	machines int
	rng      *rand.Rand
	total    map[dirKey][]int // chunks stored per machine
	consumed map[dirKey][]int // chunks consumed this iteration per machine
}

type dirKey struct {
	kind SetKind
	part int
}

// NewDirectory creates a directory for a cluster of the given size, drawing
// placement decisions from rng.
func NewDirectory(machines int, rng *rand.Rand) *Directory {
	return &Directory{
		machines: machines,
		rng:      rng,
		total:    make(map[dirKey][]int),
		consumed: make(map[dirKey][]int),
	}
}

func (d *Directory) slot(kind SetKind, part int) ([]int, []int) {
	k := dirKey{kind, part}
	if d.total[k] == nil {
		d.total[k] = make([]int, d.machines)
		d.consumed[k] = make([]int, d.machines)
	}
	return d.total[k], d.consumed[k]
}

// Place records a new chunk of (kind, part) and returns the machine chosen
// to store it (least-loaded, breaking ties randomly — a directory can
// afford smarter placement than random; the bottleneck is the directory
// itself).
func (d *Directory) Place(kind SetKind, part int) int {
	total, _ := d.slot(kind, part)
	best := -1
	for m := 0; m < d.machines; m++ {
		if best == -1 || total[m] < total[best] || (total[m] == total[best] && d.rng.Intn(2) == 0) {
			best = m
		}
	}
	total[best]++
	return best
}

// Locate returns a machine that still holds an unconsumed chunk of
// (kind, part), marking one consumed; ok is false when the set is fully
// consumed this iteration.
func (d *Directory) Locate(kind SetKind, part int) (machine int, ok bool) {
	total, consumed := d.slot(kind, part)
	// Scan from a random start so consumption is spread.
	start := d.rng.Intn(d.machines)
	for i := 0; i < d.machines; i++ {
		m := (start + i) % d.machines
		if consumed[m] < total[m] {
			consumed[m]++
			return m, true
		}
	}
	return 0, false
}

// Reset rewinds consumption for (kind, part) at the end of an iteration.
func (d *Directory) Reset(kind SetKind, part int) {
	_, consumed := d.slot(kind, part)
	for m := range consumed {
		consumed[m] = 0
	}
}

// Delete forgets all chunks of (kind, part) (update sets after gather).
func (d *Directory) Delete(kind SetKind, part int) {
	k := dirKey{kind, part}
	delete(d.total, k)
	delete(d.consumed, k)
}
