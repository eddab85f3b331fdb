package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkloadsTiny runs every workload at the tiny size, untraced and
// traced, and checks that each run passes its output checks and emits
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/experiments", "./cmd/sweepd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				var stdout, stderr bytes.Buffer
				code := run([]string{"-root", root, "-bin", bin, "-work", t.TempDir(), "-tiny",
					"--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d (error_rate must be 0)", rep.Correct, rep.Failed, rep.Attempted)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 10}
	kids := []span{
		{Start: 1, End: 3},
		{Start: 2, End: 4},   // overlaps the first: concurrent children
		{Start: 6, End: 7},   // disjoint
		{Start: 9, End: 12},  // clipped to the parent
		{Start: 11, End: 13}, // outside the parent
	}
	if got := covered(parent, kids); math.Abs(got-5) > 1e-9 {
		t.Errorf("covered = %v, want 5", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered with no children = %v, want 0", got)
	}
}
