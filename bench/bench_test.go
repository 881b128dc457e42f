package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parhull"
)

// TestMain lets the test binary play the benchmark's child roles: run
// re-executes os.Executable(), which under go test is this binary.
func TestMain(m *testing.M) {
	if role := os.Getenv(roleEnv); role != "" {
		os.Exit(child(role, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// runBench runs the benchmark at smoke scale and returns its exit code and
// the JSON object on the last line of its output.
func runBench(t *testing.T, args ...string) (int, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append([]string{"-scale", "0.01", "-seconds", "0.2", "-seed", "3"}, args...), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%v: exit %d, last line not a result: %v\nstderr:\n%s", args, code, err, errOut.String())
	}
	return code, r
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, err := lookup(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, e := range bf.EndToEnd {
		want := endToEnd[i]
		if e.Name != want.name || e.Unit != want.unit || e.Bound != want.bound || e.Better != "lower" {
			t.Errorf("end_to_end[%d] = %+v, program has %+v (better: lower)", i, e, want)
		}
	}
}

// Every workload, traced and untraced, runs correctly at smoke scale and
// prints exactly the metrics BENCHMARK.json names, each with its unit.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	units := map[string]map[string]string{"0": {}, "1": {}}
	for _, e := range bf.EndToEnd {
		units["0"][e.Name] = e.Unit
	}
	for _, e := range bf.PerLayer {
		units["1"][e.Name] = e.Unit
	}
	for _, w := range workloads {
		for trace, want := range units {
			code, r := runBench(t, "-workload", w.name, "-trace", trace)
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, correct %v, %d/%d failed", w.name, trace, code, r.Correct, r.Failed, r.Attempted)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := r.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%s: metric %s printed as %+v (present %v), want unit %s", w.name, trace, name, m, ok, unit)
				}
			}
		}
	}
}

func TestPlantedWrongReferenceCountsAsFailure(t *testing.T) {
	code, r := runBench(t, "-workload", "stream3d-100k", "-plant-wrong-ref")
	if code == 0 || r.Correct || r.Attempted == 0 || r.Failed != r.Attempted {
		t.Errorf("planted wrong reference: exit %d, correct %v, %d/%d failed; want every build failed", code, r.Correct, r.Failed, r.Attempted)
	}
}

func TestTraceOutWritesSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	if code, r := runBench(t, "-workload", "stream3d-100k", "-trace", "1", "-trace-out", path); code != 0 || !r.Correct {
		t.Fatalf("traced run: exit %d, correct %v", code, r.Correct)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct{ Spans []span }
	if err := json.Unmarshal(data, &got); err != nil || len(got.Spans) == 0 {
		t.Fatalf("span file: %v, %d spans", err, len(got.Spans))
	}
	for _, s := range got.Spans {
		if s.End < s.Start || s.Build < 1 || (s.Parent < 0) != (s.Name == "parhull.build") {
			t.Errorf("malformed span %+v", s)
		}
	}
}

// The traced replay must build exactly what Builder.Build builds. 20000
// points is past the auto pre-hull's floor, so on the ball workloads the
// replay runs every stage, and the stream workload reuses the replay's
// state across clouds as a Builder does.
func TestReplayMatchesBuild(t *testing.T) {
	const seed = 5
	for _, w := range workloads {
		inputs := w.inputs(seed, 20000/float64(w.n))
		b := parhull.NewBuilder(options(seed))
		r := &replay{seed: seed, eng: newEngineState()}
		tr := newTracer()
		var fp fingerprinter
		for i, pts := range inputs {
			h, err := w.build(b, pts)
			if err != nil {
				t.Fatalf("%s: Build: %v", w.name, err)
			}
			want := fp.of(h)
			tr.build = i + 1
			rh, err := r.build(w, pts, tr)
			if err != nil {
				t.Fatalf("%s: replay: %v", w.name, err)
			}
			if got := fp.of(rh); got != want {
				t.Errorf("%s cloud %d: replay fingerprint %x, Build %x", w.name, i, got, want)
			}
		}
		interior := w.name == "ball3d-1m" || w.name == "stream3d-100k"
		if reduced := r.red != nil; reduced != interior {
			t.Errorf("%s: pre-hull ran = %v, want %v", w.name, reduced, interior)
		}
		b.Close()
		r.eng.close()
	}
}
