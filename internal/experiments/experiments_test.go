package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false,
	"re-capture testdata/figures.<scale>.json and EXPERIMENTS.md's table from a fresh run instead of comparing")

// rowLines encodes a figure's rows one JSON object per line, the form
// the committed record keeps them in so that a moved number is a
// one-line diff.
func rowLines(t *testing.T, f Figure) []string {
	t.Helper()
	lines := make([]string, len(f.Rows))
	for i, r := range f.Rows {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(r); err != nil {
			t.Fatalf("%s row %d (%q): %v", f.ID, i, r.Text, err)
		}
		lines[i] = strings.TrimSuffix(b.String(), "\n")
	}
	return lines
}

// checkRecord runs every recorded experiment at scale s and holds each
// to the committed figure record by exact equality: simulated results do
// not depend on the host, so there is no tolerance to tune. A change
// meant to move the evaluation re-captures the record with -update and
// says why in its description. The experiments run as parallel
// subtests; -update writes the record, in table order, once they all
// have finished.
func checkRecord(t *testing.T, s Scale) {
	path := filepath.Join("testdata", "figures."+s.Name+".json")
	var committed []Figure
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &committed); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	} else if !*update {
		t.Fatal(err)
	}
	fresh := make([]string, len(All)) // fresh[k] is All[k]'s record entry
	recorded := 0
	for k, e := range All {
		if e.ID == NativeID {
			continue
		}
		recorded++
		// Subtests are named by banner label without its parenthetical
		// (Table1, Figure10, Capacity), as before the table existed.
		label, _, _ := strings.Cut(e.Paper, " (")
		t.Run(strings.ReplaceAll(label, " ", ""), func(t *testing.T) {
			t.Parallel()
			fig, err := e.Run(io.Discard, s)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			got := rowLines(t, fig)
			fresh[k] = fmt.Sprintf(" {\"id\": %q, \"rows\": [\n  %s\n ]}", e.ID, strings.Join(got, ",\n  "))
			if *update {
				return
			}
			i := slices.IndexFunc(committed, func(f Figure) bool { return f.ID == e.ID })
			if i < 0 {
				t.Fatalf("%s: not in %s; re-capture with -update", e.ID, path)
			}
			want := rowLines(t, committed[i])
			for j := 0; j < len(got) && j < len(want); j++ {
				if got[j] != want[j] {
					t.Fatalf("%s: row %d moved from the committed record (%s)\n got %s\nwant %s", e.ID, j, path, got[j], want[j])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: printed %d rows, the committed record (%s) has %d", e.ID, len(got), path, len(want))
			}
		})
	}
	if !*update {
		return
	}
	t.Cleanup(func() {
		fresh = slices.DeleteFunc(fresh, func(f string) bool { return f == "" })
		if len(fresh) != recorded {
			t.Errorf("-update needs every experiment to run and succeed: got %d of %d", len(fresh), recorded)
			return
		}
		if err := os.WriteFile(path, []byte("[\n"+strings.Join(fresh, ",\n")+"\n]\n"), 0o644); err != nil {
			t.Error(err)
		}
	})
}

// TestEveryExperimentRunsAtQuickScale holds every simulated experiment
// of the table — figures and ablations — to testdata/figures.quick.json.
func TestEveryExperimentRunsAtQuickScale(t *testing.T) { checkRecord(t, Quick) }

// TestLabScaleRecord is the same check at the scale EXPERIMENTS.md
// discusses; it takes minutes, so it runs only under CHAOS_FIGURES_LAB=1
// (CI has a step for it).
func TestLabScaleRecord(t *testing.T) {
	if os.Getenv("CHAOS_FIGURES_LAB") == "" {
		t.Skip("set CHAOS_FIGURES_LAB=1 to check testdata/figures.lab.json")
	}
	checkRecord(t, Lab)
}

// TestRecordIgnoresComputeWorkers pins what lets the record be compared
// by equality: the host worker pool's width changes wall-clock only.
func TestRecordIgnoresComputeWorkers(t *testing.T) {
	i := slices.IndexFunc(All, func(e Experiment) bool { return e.ID == "abl-replication" })
	run := func(workers int) Figure {
		s := Quick
		s.ComputeWorkers = workers
		fig, err := All[i].Run(io.Discard, s)
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}
	if one, three := run(1), run(3); !reflect.DeepEqual(one, three) {
		t.Errorf("record differs between 1 and 3 compute workers:\n%+v\n%+v", one, three)
	}
}

// TestReportKeepsItsOwnValues: experiments reuse one buffer for
// consecutive series, so a row must not alias the slice it was handed.
func TestReportKeepsItsOwnValues(t *testing.T) {
	r := &report{w: io.Discard}
	vals := []float64{1, 2}
	r.series("a", vals, "%8.3f")
	vals[0] = 9
	r.series("b", vals, "%8.3f")
	if got := r.fig.Rows[0].Values[0]; got != 1 {
		t.Errorf("first row recorded %v after its buffer was reused, want 1", got)
	}
}

const (
	docPath  = "../../EXPERIMENTS.md"
	docBegin = "<!-- experiments:begin — generated from internal/experiments/table.go; `go test ./internal/experiments/ -update` rewrites these rows -->"
	docEnd   = "<!-- experiments:end -->"
)

func docRow(e Experiment) string {
	return fmt.Sprintf("| `%s` | %s | %s | %s | %s |", e.ID, e.Paper, e.Title, e.Claim, e.Target)
}

// TestExperimentsDocMatchesTable holds EXPERIMENTS.md's table to the
// declaration: a row edited by hand, or an entry added to the table
// without -update, fails with the experiment's id.
func TestExperimentsDocMatchesTable(t *testing.T) {
	data, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := strings.Cut(string(data), docBegin+"\n")
	section, tail, ok2 := strings.Cut(rest, docEnd)
	if !ok || !ok2 {
		t.Fatalf("%s: table markers missing", docPath)
	}
	want := []string{
		"| id | paper | experiment | what the paper shows | reproduction target |",
		"|----|-------|------------|----------------------|---------------------|",
	}
	for _, e := range All {
		want = append(want, docRow(e))
	}
	if *update {
		out := head + docBegin + "\n" + strings.Join(want, "\n") + "\n" + docEnd + tail
		if err := os.WriteFile(docPath, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got := strings.Split(strings.TrimSuffix(section, "\n"), "\n")
	for _, e := range All {
		if !slices.Contains(got, docRow(e)) {
			t.Errorf("%s: row for %q is not what table.go declares (edit the table, then -update)\nwant %s", docPath, e.ID, docRow(e))
		}
	}
	if !t.Failed() && !slices.Equal(got, want) {
		t.Errorf("%s: table has extra or misordered lines; -update rewrites it", docPath)
	}
}

func TestWeakScalingCacheHits(t *testing.T) {
	// Two concurrent callers of one sweep (Figures 7 and 14 run as
	// parallel subtests) share a single run.
	var a, b *WeakScalingResult
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a, errA = RunWeakScaling(Quick, []string{"Cond"}) }()
	go func() { defer wg.Done(); b, errB = RunWeakScaling(Quick, []string{"Cond"}) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a != b {
		t.Error("concurrent identical sweeps should share one result")
	}
	c, err := RunWeakScaling(Quick, []string{"Cond"})
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Error("second identical sweep should hit the cache")
	}
}

func TestLog2(t *testing.T) {
	for _, tc := range []struct{ m, want int }{{1, 0}, {2, 1}, {4, 2}, {32, 5}} {
		if got := log2(tc.m); got != tc.want {
			t.Errorf("log2(%d) = %d, want %d", tc.m, got, tc.want)
		}
	}
}

func TestLabScaleSanity(t *testing.T) {
	if Lab.WeakBase <= 0 || Lab.ChunkBytes <= 0 || len(Lab.Machines) == 0 {
		t.Errorf("lab scale malformed: %+v", Lab)
	}
	if Lab.Machines[len(Lab.Machines)-1] != 32 {
		t.Error("lab scale should sweep to 32 machines like the paper")
	}
	opt := Lab.options(4, 1<<12)
	if opt.LatencyScale <= 0 || opt.LatencyScale > 1 {
		t.Errorf("latency scale %f out of range", opt.LatencyScale)
	}
}
