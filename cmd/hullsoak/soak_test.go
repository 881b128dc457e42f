package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parhull/internal/hulld"
)

const testDeadline = 60 * time.Second

// TestSoakSmoke runs a short derived-trial soak: every trial from the fixed
// root seed must either certify or fail inside the typed-error contract.
func TestSoakSmoke(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 12
	}
	for i := 0; i < trials; i++ {
		sp := deriveTrial(trialSeed(1, i))
		o := RunTrial(sp, testDeadline)
		if o.Violation != "" {
			t.Fatalf("trial %d (%s): %s", i, sp, o.Violation)
		}
	}
}

// TestTrialsDeterministic re-runs derived trials and requires bit-for-bit
// identical outcomes: same error text, same result fingerprint.
func TestTrialsDeterministic(t *testing.T) {
	for i := 0; i < 10; i++ {
		sp := deriveTrial(trialSeed(2, i))
		a := RunTrial(sp, testDeadline)
		b := RunTrial(sp, testDeadline)
		if a.Violation != "" || b.Violation != "" {
			t.Fatalf("trial %d (%s): unexpected violation %q / %q", i, sp, a.Violation, b.Violation)
		}
		if a.Err != b.Err || a.Fingerprint != b.Fingerprint {
			t.Fatalf("trial %d (%s) not deterministic:\n  run 1: err=%q fp=%s\n  run 2: err=%q fp=%s",
				i, sp, a.Err, a.Fingerprint, b.Err, b.Fingerprint)
		}
	}
}

// plantedSpec is a candidate configuration for exercising the planted
// scan-kernel defect: d=3 hulls on a ball cloud, parallel engine, shuffled,
// on one worker. The defect corrupts conflict lists, which voids the
// schedule independence of Theorem 5.5, so with more workers the same spec
// can fail differently from run to run and the bit-for-bit replay check
// below would test the schedule, not the rig.
func plantedSpec(seed uint64) TrialSpec {
	return TrialSpec{
		Seed:        seed,
		Space:       "hulld",
		Engine:      "par-steal",
		N:           400,
		D:           3,
		Gen:         "ball",
		GenSeed:     int64(seed),
		Shuffle:     true,
		ShuffleSeed: int64(seed) + 1,
		Workers:     1,
	}
}

// TestPlantedBugCaughtReplayedAndShrunk is the end-to-end acceptance test
// for the rig: with the hidden scan-kernel defect armed, the independent
// certifier must flag the output, the recorded violation must reproduce
// bit-for-bit from its replay file, and the shrinker must cut the input to
// a quarter of its original size or less.
func TestPlantedBugCaughtReplayedAndShrunk(t *testing.T) {
	hulld.PlantSoakBug(true)
	defer hulld.PlantSoakBug(false)

	// Some seeds corrupt the construction badly enough that the engine's own
	// ridge validation aborts the build (also a caught violation, but a less
	// interesting one). Keep scanning until the defect slips past the engine
	// entirely and only the independent certifier flags the output.
	var caught *Outcome
	for seed := uint64(1); seed <= 40; seed++ {
		sp := plantedSpec(seed)
		o := RunTrial(sp, testDeadline)
		if strings.Contains(o.Violation, "certification failed") {
			caught = &o
			break
		}
	}
	if caught == nil {
		t.Fatal("planted drop-candidate defect never reached the certifier in 40 seeds")
	}
	t.Logf("caught: %s", caught.Summary())

	dir := t.TempDir()
	path := filepath.Join(dir, "violation.json")
	if err := writeReplay(path, *caught); err != nil {
		t.Fatal(err)
	}
	rf, err := readReplay(path)
	if err != nil {
		t.Fatal(err)
	}
	re, reproduced := Reproduce(rf, testDeadline)
	if !reproduced {
		t.Fatalf("violation did not reproduce: %s", re.Summary())
	}
	if re.Violation != caught.Violation || re.Fingerprint != caught.Fingerprint {
		t.Fatalf("replay not bit-for-bit:\n  recorded: %q fp=%s\n  replayed: %q fp=%s",
			caught.Violation, caught.Fingerprint, re.Violation, re.Fingerprint)
	}

	min := Shrink(rf.Spec, testDeadline, func(msg string) { t.Log(msg) })
	if min.N > rf.Spec.N/4 {
		t.Fatalf("shrink stalled at n=%d, want <= %d", min.N, rf.Spec.N/4)
	}
	if out := RunTrial(min, testDeadline); out.Violation == "" {
		t.Fatalf("shrunk spec %s no longer fails", min)
	}
	t.Logf("shrunk n %d -> %d", rf.Spec.N, min.N)
}

// TestReplayFileRoundTrip checks the replay file is self-contained JSON.
func TestReplayFileRoundTrip(t *testing.T) {
	sp := deriveTrial(trialSeed(3, 0))
	out := Outcome{Spec: sp, Violation: "synthetic", Fingerprint: "deadbeef", Class: "ok"}
	path := filepath.Join(t.TempDir(), "rt.json")
	if err := writeReplay(path, out); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "\"spec\"") {
		t.Fatalf("replay file missing spec: %s", b)
	}
	rf, err := readReplay(path)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Spec != sp || rf.Violation != "synthetic" || rf.Fingerprint != "deadbeef" {
		t.Fatalf("round trip mismatch: %+v", rf)
	}
}

// TestReplayRejectsRemovedAxes checks strict replay decoding: a file that
// names a configuration field or an engine this rig no longer has — as an
// old replay file recorded against a removed axis would — is refused with an
// error instead of being replayed as some other trial, while the same file
// without the stale setting still loads.
func TestReplayRejectsRemovedAxes(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, spec string
		ok         bool
	}{
		{"current", `{"seed": 7, "space": "hulld", "engine": "par-steal", "n": 50, "d": 3, "gen": "ball", "genSeed": 1}`, true},
		{"unknown field", `{"seed": 7, "space": "hulld", "engine": "par-steal", "n": 50, "d": 3, "gen": "ball", "genSeed": 1, "noSoALayout": true}`, false},
		{"unknown engine", `{"seed": 7, "space": "hulld", "engine": "par-group", "n": 50, "d": 3, "gen": "ball", "genSeed": 1}`, false},
		{"engine on a single-engine space", `{"seed": 7, "space": "circles", "engine": "seq", "n": 5, "d": 2, "gen": "near", "genSeed": 1}`, false},
		{"unknown space", `{"seed": 7, "space": "voronoi", "n": 5, "gen": "near", "genSeed": 1}`, false},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".json")
		if err := os.WriteFile(path, []byte(`{"spec": `+tc.spec+`, "violation": "recorded"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readReplay(path)
		if tc.ok && err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Fatalf("%s: stale replay file accepted", tc.name)
		}
	}
}
