package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// ReplayFile is the self-contained record of a violating trial: the full
// spec (one seed's worth of sampled configuration) plus what went wrong.
// `hullsoak -replay <file>` re-runs the spec, checks the reproduction is
// bit-for-bit (same outcome, same result fingerprint when one exists), and
// then shrinks it.
type ReplayFile struct {
	Spec        TrialSpec `json:"spec"`
	Violation   string    `json:"violation"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	Class       string    `json:"class,omitempty"`
	Wrote       string    `json:"wrote,omitempty"` // RFC3339 timestamp
}

func writeReplay(path string, out Outcome) error {
	rf := ReplayFile{
		Spec:        out.Spec,
		Violation:   out.Violation,
		Fingerprint: out.Fingerprint,
		Class:       out.Class,
		Wrote:       time.Now().UTC().Format(time.RFC3339),
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readReplay decodes a replay file strictly: an unknown field or a spec no
// current trial can carry (validate) is an error, so a file recorded with a
// configuration axis that no longer exists is refused instead of replayed
// as a different trial.
func readReplay(path string) (ReplayFile, error) {
	var rf ReplayFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rf); err != nil {
		return rf, err
	}
	return rf, rf.Spec.validate()
}

// Reproduce re-runs a recorded violation and reports whether it reproduced
// bit-for-bit: the trial must fail again, and when both the record and the
// re-run produced a result fingerprint they must be identical.
func Reproduce(rf ReplayFile, deadline time.Duration) (Outcome, bool) {
	out := RunTrial(rf.Spec, deadline)
	if out.Violation == "" {
		return out, false
	}
	if rf.Fingerprint != "" && out.Fingerprint != "" && rf.Fingerprint != out.Fingerprint {
		return out, false
	}
	return out, true
}

// Shrink minimizes a failing spec: drop the fault plan and cancellation,
// strip options back toward defaults, and repeatedly halve n — keeping
// each simplification only if the trial still fails. The result is the
// smallest configuration this greedy pass can reach that still violates.
func Shrink(sp TrialSpec, deadline time.Duration, log func(string)) TrialSpec {
	fails := func(c TrialSpec) bool { return RunTrial(c, deadline).Violation != "" }
	cur := sp
	for _, step := range []struct {
		name  string
		apply func(TrialSpec) TrialSpec
	}{
		{"drop fault plan", func(c TrialSpec) TrialSpec { c.Fault = nil; return c }},
		{"drop cancellation", func(c TrialSpec) TrialSpec { c.CancelAfterUS = 0; return c }},
		{"drop builder reuse", func(c TrialSpec) TrialSpec { c.Reuse = false; return c }},
		{"default map", func(c TrialSpec) TrialSpec { c.MapMode = ""; return c }},
		{"default pre-hull", func(c TrialSpec) TrialSpec { c.PreHull = ""; return c }},
		{"default filter grain", func(c TrialSpec) TrialSpec { c.FilterGrain = 0; return c }},
		{"default workers", func(c TrialSpec) TrialSpec { c.Workers = 0; return c }},
		{"no shuffle", func(c TrialSpec) TrialSpec { c.Shuffle = false; return c }},
	} {
		cand := step.apply(cur)
		if cand == cur {
			continue
		}
		if fails(cand) {
			cur = cand
			log("shrink: " + step.name)
		}
	}
	for minN := minTrialN(cur); cur.N/2 >= minN; {
		cand := cur
		cand.N = cur.N / 2
		if !fails(cand) {
			break
		}
		cur = cand
		log(fmt.Sprintf("shrink: n -> %d", cur.N))
	}
	return cur
}

// minTrialN is the smallest input size a space can meaningfully run at.
func minTrialN(sp TrialSpec) int {
	switch sp.Space {
	case "hull2d", "delaunay", "circles":
		return 3
	case "hulld":
		return sp.D + 2
	case "halfspace":
		return sp.D + 2
	case "trapezoid":
		return 1
	case "corner":
		return 4
	}
	return 3
}
