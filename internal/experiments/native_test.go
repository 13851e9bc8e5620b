package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestNativeVsDES runs the two-arm comparison at quick scale: it prints
// a DES row, a native row and the speedup line, and passes because the
// native plane wins (the margin is structural, so this holds on any
// host). A losing pair of totals must fail the experiment — its exit
// status is the verdict CI reads.
func TestNativeVsDES(t *testing.T) {
	var out bytes.Buffer
	if err := nativeVsDES(&report{w: &out}, Quick); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"des wall s", "native wall s", "native speedup"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output has no %q row:\n%s", want, out.String())
		}
	}
	if err := nativeVerdict(1.0, 1.5); err == nil {
		t.Error("native 1.5s against DES 1.0s passed the verdict")
	}
}
