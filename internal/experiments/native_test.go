package experiments

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestNativeVsDESEmitsRecord runs the native-vs-DES comparison at quick
// scale and validates the emitted BENCH_native.json: five arms over the
// same machine axis (des/native/native-barrier on the strong-scale
// graph, the zero-copy/oocore transport pair on the larger out-of-core
// graph), per-point wall-clock populated, spill traffic recorded only
// on the budgeted arm, and the native plane at or under the DES
// driver's wall-clock (the margin is structural — the DES serializes
// every event through one scheduler — so this holds on any host).
func TestNativeVsDESEmitsRecord(t *testing.T) {
	s := Quick
	s.BenchDir = t.TempDir()
	if err := nativeVsDES(&report{w: io.Discard}, s); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(s.BenchDir, "BENCH_native.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec BenchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Experiment != "native" || len(rec.Arms) != 5 {
		t.Fatalf("record shape wrong: %+v", rec)
	}
	des, nat, bar, fast, ooc := rec.Arms[0], rec.Arms[1], rec.Arms[2], rec.Arms[3], rec.Arms[4]
	if des.Name != "des" || nat.Name != "native" || bar.Name != "native-barrier" ||
		fast.Name != "native-zerocopy" || ooc.Name != "oocore" {
		t.Fatalf("arm names %q, %q, %q, %q, %q", des.Name, nat.Name, bar.Name, fast.Name, ooc.Name)
	}
	for _, a := range rec.Arms {
		if len(a.Machines) != len(s.Machines) {
			t.Fatalf("arm %s machine axis truncated: %v", a.Name, a.Machines)
		}
		if len(a.WallSecondsPerPoint) != len(s.Machines) {
			t.Fatalf("arm %s per-point wall-clock missing", a.Name)
		}
		if a.WallSeconds <= 0 {
			t.Fatalf("arm %s wall total not measured: %g", a.Name, a.WallSeconds)
		}
	}
	for _, a := range []BenchArm{nat, bar, fast, ooc} {
		for i, ss := range a.SimulatedSeconds {
			if ss != 0 {
				t.Errorf("%s arm point %d claims simulated seconds %g", a.Name, i, ss)
			}
		}
	}
	// Spill traffic belongs to the budgeted arm and only to it.
	if len(ooc.SpillBytesPerPoint) != len(s.Machines) {
		t.Fatalf("oocore arm spill bytes missing: %v", ooc.SpillBytesPerPoint)
	}
	for i, b := range ooc.SpillBytesPerPoint {
		if b <= 0 {
			t.Errorf("oocore arm point %d did not spill", i)
		}
	}
	for _, a := range []BenchArm{des, nat, bar, fast} {
		if len(a.SpillBytesPerPoint) != 0 {
			t.Errorf("arm %s carries spill bytes: %v", a.Name, a.SpillBytesPerPoint)
		}
	}
	if rec.NativeBeatsDES == nil {
		t.Fatal("record carries no native-vs-DES verdict")
	}
	if !*rec.NativeBeatsDES {
		t.Errorf("native wall %gs did not beat DES wall %gs", nat.WallSeconds, des.WallSeconds)
	}
}
