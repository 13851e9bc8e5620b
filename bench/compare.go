package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict judges one end-to-end metric on one workload between two
// records. rel is the change of the median from a to b as a share of a,
// positive when b is worse. A change within the bound reads "same" only
// when both sides' run-to-run spread (quartile distance over median) is
// within the bound too; otherwise the runs cannot tell, "unresolved".
func verdict(d metricDef, a, b []float64) (rel float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	rel = (mb - ma) / ma
	if d.Better == "higher" {
		rel = -rel
	}
	switch {
	case rel > d.Bound:
		return rel, "worse"
	case rel < -d.Bound:
		return rel, "better"
	case max(spread(a), spread(b)) > d.Bound:
		return rel, "unresolved"
	}
	return rel, "same"
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// compareFiles prints one row per end-to-end metric and workload of two
// records, then the figures that must repeat exactly when the records
// share a seed. It reports whether any row is worse, any exact figure
// differs or any operation failed.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readRecord(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "worse by", "bound", "verdict")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s is missing from a record", name)
		}
		for _, d := range endToEnd {
			rel, v := verdict(d, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name])
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n", name, d.Name,
				median(wa.EndToEnd[d.Name]), median(wb.EndToEnd[d.Name]), 100*rel, 100*d.Bound, v)
		}
		if wa.Failed+wb.Failed > 0 || !wa.Correct || !wb.Correct {
			worse = true
			fmt.Fprintf(w, "%-18s failed operations: a %d of %d, b %d of %d\n", name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
		if a.Seed != b.Seed {
			continue
		}
		for _, exact := range exactPerLayer {
			if x, y := wa.PerLayer[exact], wb.PerLayer[exact]; x != y {
				worse = true
				fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g  differs, must repeat exactly\n", name, exact, x, y)
			}
		}
	}
	return worse, nil
}
