package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"loas/internal/sizing"
	"loas/internal/techno"
)

const evalAblationPath = "testdata/eval_ablation_golden.json"

// goldenEvalAblation is the hex-exact encoding of an EvalAblation.
type goldenEvalAblation struct {
	PMAnalytic  string `json:"pm_analytic_deg"`
	PMSimulated string `json:"pm_simulated_deg"`
	PMExtracted string `json:"pm_extracted_deg"`
}

// TestEvalAblationGolden pins the three phase margins of the case-4
// evaluation ablation (closed-form pole counting, the plan's simulated
// evaluation, the extracted-netlist measurement) bit for bit. TestEvalAblation
// only checks their ordering within a tolerance; this golden catches any
// ULP drift in the analytic estimate or the simulator underneath the
// other two. Re-bless after an intentional model or solver change:
//
//	go test ./internal/repro -run TestEvalAblationGolden -update
func TestEvalAblationGolden(t *testing.T) {
	abl, err := RunEvalAblation(techno.Default060(), sizing.Default65MHz())
	if err != nil {
		t.Fatal(err)
	}
	got := goldenEvalAblation{
		PMAnalytic:  hexF(abl.PMAnalytic),
		PMSimulated: hexF(abl.PMSimulated),
		PMExtracted: hexF(abl.PMExtracted),
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(evalAblationPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(evalAblationPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", evalAblationPath)
		return
	}

	data, err := os.ReadFile(evalAblationPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want goldenEvalAblation
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if got != want {
		t.Fatalf("live eval ablation diverges from %s:\n  got  %+v\n  want %+v\n(re-bless with -update if intentional)",
			evalAblationPath, got, want)
	}
}
