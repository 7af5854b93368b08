package harness

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pathfinder/internal/faultinject"
)

// -update-golden regenerates the recorded driver reports under testdata/.
// The recorded files were captured before the hot-path overhaul landed, so
// these tests pin the overhauled fast paths (incremental folds, predecoded
// programs, patched attack templates, sharded drivers) to the exact
// pre-overhaul behaviour, counters included. One exception: golden_aesleak
// was re-captured when AESLeakEval's trials moved from a single shared
// machine to independent per-trial machines (the determinism contract that
// makes the report Parallelism-invariant). Its leak outcomes and recovered
// key match the pre-overhaul capture exactly; only the aggregate counters
// moved with the machine restructuring.
var updateGolden = flag.Bool("update-golden", false, "regenerate testdata golden driver reports")

func goldenCompare(t *testing.T, name string, report any) {
	t.Helper()
	got, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("report diverges from recorded golden %s\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestGoldenObs2(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	rep, err := Obs2CounterWidth(context.Background(), Options{}, 6)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_obs2.json", rep)
}

func TestGoldenFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	rep, err := Fig4ReadDoublet(context.Background(), Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_fig4.json", rep)
}

func TestGoldenReadPHR(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	rep, err := ReadPHRRandomEval(context.Background(), Options{}, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_readphr.json", rep)
}

func TestGoldenExtendedRead(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	rep, err := ExtendedReadEval(context.Background(), Options{}, []int{40})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_extread.json", rep)
}

func TestGoldenAESLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	rep, err := AESLeakEval(context.Background(), Options{}, 8, 0.015)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_aesleak.json", rep)
}

// TestGoldenAESLeakFaulted pins the exact bytes of fault-injected reports.
// Every injector hook (run-boundary and taken-branch PHR pollution, PHT
// training drop and aliasing, cache eviction and latency jitter) draws in a
// fixed order, so moving any call into the injector moves a report. At 8
// trials the default profile's faults leave the report equal to the clean
// one; the polluted arm is the one whose bytes the faults visibly change.
func TestGoldenAESLeakFaulted(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	for _, c := range []struct {
		golden string
		prof   faultinject.Profile
	}{
		{"golden_aesleak_faulted.json", faultinject.Default()},
		{"golden_aesleak_polluted.json", faultinject.Default().WithPollution(0.001, 8)},
	} {
		rep, err := AESLeakEval(context.Background(), Options{Faults: &c.prof}, 8, 0.015)
		if err != nil {
			t.Fatal(err)
		}
		goldenCompare(t, c.golden, rep)
	}
}

func TestGoldenFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	rep, err := Fig7ImageRecovery(context.Background(), Options{}, 16, 70, 2)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_fig7.json", rep)
}
