// The record below is committed and compared by equality, so it is
// slices in print order and never a ranged map.

package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Figure is what one experiment printed: its rows, in print order. The
// figures of every simulated experiment are committed under testdata/
// (figures.quick.json, figures.lab.json) and `go test` holds a fresh run
// to them by exact equality — simulated results are identical on every
// host and for every ComputeWorkers value, so there is no tolerance.
type Figure struct {
	ID   string `json:"id"`
	Rows []Row  `json:"rows"`
}

// Row is one printed line: the text as chaos-bench shows it, and the
// numbers on it before formatting rounded them.
type Row struct {
	Text   string    `json:"text"`
	Values []float64 `json:"values,omitempty"`
}

// report is the one funnel an experiment's output goes through: each
// call prints a line and appends it to the experiment's Figure.
type report struct {
	w   io.Writer
	fig Figure
}

func (r *report) emit(text string, vals []float64) {
	fmt.Fprintln(r.w, text)
	r.fig.Rows = append(r.fig.Rows, Row{Text: text, Values: vals})
}

// header prints the experiment's banner. The banner is the declaration
// (table.go), not a measurement, so it is not recorded.
func (r *report) header(e Experiment) {
	fmt.Fprintf(r.w, "\n=== %s: %s ===\n    paper: %s\n", e.Paper, e.Title, e.Claim)
}

// row prints one formatted line and records its numeric arguments.
func (r *report) row(format string, args ...any) {
	var vals []float64
	for _, a := range args {
		switch v := a.(type) {
		case int:
			vals = append(vals, float64(v))
		case float64:
			vals = append(vals, v)
		case string:
		default:
			panic(fmt.Sprintf("experiments: row argument of type %T would be printed but not recorded", a))
		}
	}
	r.emit(fmt.Sprintf(format, args...), vals)
}

// cells prints a label followed by one cell per value. The record keeps
// its own copy: callers reuse vals for the next row.
func (r *report) cells(labelFormat, label, cellFormat string, vals []float64) {
	var b strings.Builder
	fmt.Fprintf(&b, labelFormat, label)
	for _, v := range vals {
		fmt.Fprintf(&b, cellFormat, v)
	}
	r.emit(b.String(), slices.Clone(vals))
}

// series prints one named row of values under an xAxis.
func (r *report) series(name string, vals []float64, format string) {
	r.cells("  %-14s", name, " "+format, vals)
}

// xAxis prints the machine-count axis row.
func (r *report) xAxis(label string, xs []int) {
	r.cells("  %-14s", label, " %8.0f", floats(xs))
}

func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
