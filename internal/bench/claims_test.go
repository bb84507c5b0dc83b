package bench

import "testing"

// TestAllPaperClaimsHold runs every executable claim at a moderate budget:
// this is the reproduction's strongest regression test — if a workload or
// predictor change breaks one of the paper's findings, it fails here.
func TestAllPaperClaimsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs dozens of simulations")
	}
	p := Params{AccuracyBudget: 600_000, TimingBudget: 100_000}
	for _, c := range Claims() {
		c := c
		t.Run(c.Statement[:min(40, len(c.Statement))], func(t *testing.T) {
			g := newCellGroup(p)
			cl, verdict := c.enqueue(g)
			g.run()
			if !cl.ok() {
				t.Fatalf("claim %d did not run: %v", c.ID, cl.cerr)
			}
			msg, ok := verdict()
			if !ok {
				t.Errorf("claim %d failed: %s\n  measured: %s", c.ID, c.Statement, msg)
			} else {
				t.Logf("claim %d: %s", c.ID, msg)
			}
		})
	}
}

func TestVerifyExperimentRegistered(t *testing.T) {
	e, err := ByID("verify")
	if err != nil {
		t.Fatal(err)
	}
	if e.Title == "" {
		t.Fatal("verify experiment has no title")
	}
	if len(Claims()) != 8 {
		t.Fatalf("claims = %d, want 8", len(Claims()))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
