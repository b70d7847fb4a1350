package ccolor_test

// End-to-end telemetry invariants: the span trace a Solve produces under
// Options.Trace must agree exactly with the fabric ledger's cost accounting
// (every AddRound is observed by exactly one span), and turning tracing on
// must not perturb the solve in any observable way — the golden determinism
// contract extends to traced runs.

import (
	"reflect"
	"testing"

	"ccolor"
	"ccolor/internal/scenario"
)

// solveScenario runs one registry scenario at the golden size with the
// golden MPC space factor.
func solveScenario(t *testing.T, spec *scenario.Spec, model ccolor.Model, trace bool) *ccolor.Report {
	t.Helper()
	inst, err := spec.Instance(scenarioGoldenN, scenarioGoldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ccolor.Solve(inst, &ccolor.Options{Model: model, MPCSpaceFactor: 16, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestTelemetrySpansMatchLedger(t *testing.T) {
	models := []ccolor.Model{ccolor.ModelCClique, ccolor.ModelMPC, ccolor.ModelLowSpace}
	for _, spec := range scenario.All() {
		for _, model := range models {
			t.Run(spec.Name+"/"+string(model), func(t *testing.T) {
				rep := solveScenario(t, spec, model, true)
				tel := rep.Telemetry
				if tel == nil {
					t.Fatal("Options.Trace set but Report.Telemetry is nil")
				}
				if tel.Model != string(model) {
					t.Fatalf("trace model %q, want %q", tel.Model, model)
				}

				// The trace's totals must equal the executed-rounds view of
				// the run. For the clique-simulation models that is the
				// Report ledger itself; for lowspace the Report's Rounds is
				// the parallel-composition critical path, so the executed
				// truth lives in LowTrace (main cluster + MIS pools).
				wantRounds, wantWords := rep.Rounds, rep.WordsMoved
				if model == ccolor.ModelLowSpace {
					lt := rep.LowTrace
					if lt == nil {
						t.Fatal("lowspace report has no LowTrace")
					}
					wantRounds = lt.ExecutedRounds + lt.MISRounds
					wantWords = lt.WordsMoved + lt.MISWords
				}
				if tel.Rounds != wantRounds {
					t.Errorf("trace rounds = %d, want %d", tel.Rounds, wantRounds)
				}
				if tel.Words != wantWords {
					t.Errorf("trace words = %d, want %d", tel.Words, wantWords)
				}

				// Span totals are sums over spans by construction; check the
				// per-phase decomposition against the ledger's PhaseProfile.
				spanRounds := map[string]int{}
				spanWords := map[string]int64{}
				for _, sp := range tel.Spans {
					spanRounds[sp.Phase] += sp.Rounds
					spanWords[sp.Phase] += sp.Words
				}
				if len(spanRounds) != len(rep.PhaseProfile) {
					t.Errorf("spans cover %d phases, PhaseProfile has %d", len(spanRounds), len(rep.PhaseProfile))
				}
				for phase, ps := range rep.PhaseProfile {
					if spanRounds[phase] != ps.Rounds {
						t.Errorf("phase %q: span rounds %d, ledger %d", phase, spanRounds[phase], ps.Rounds)
					}
					if spanWords[phase] != ps.Words {
						t.Errorf("phase %q: span words %d, ledger %d", phase, spanWords[phase], ps.Words)
					}
				}
			})
		}
	}
}

func TestTracingDoesNotPerturbSolve(t *testing.T) {
	models := []ccolor.Model{ccolor.ModelCClique, ccolor.ModelMPC, ccolor.ModelLowSpace}
	for _, spec := range scenario.All() {
		for _, model := range models {
			t.Run(spec.Name+"/"+string(model), func(t *testing.T) {
				plain := solveScenario(t, spec, model, false)
				traced := solveScenario(t, spec, model, true)
				if plain.Telemetry != nil {
					t.Fatal("untraced solve produced a Telemetry trace")
				}
				if coloringFP(plain.Coloring) != coloringFP(traced.Coloring) {
					t.Error("tracing changed the coloring")
				}
				if plain.Rounds != traced.Rounds || plain.WordsMoved != traced.WordsMoved {
					t.Errorf("tracing changed the ledger: rounds %d→%d words %d→%d",
						plain.Rounds, traced.Rounds, plain.WordsMoved, traced.WordsMoved)
				}
				if plain.MaxNodeLoad != traced.MaxNodeLoad {
					t.Errorf("tracing changed MaxNodeLoad: %d→%d", plain.MaxNodeLoad, traced.MaxNodeLoad)
				}
				if !reflect.DeepEqual(plain.PhaseProfile, traced.PhaseProfile) {
					t.Errorf("tracing changed PhaseProfile: %v vs %v", plain.PhaseProfile, traced.PhaseProfile)
				}
			})
		}
	}
}
