package concat

import (
	"fmt"
	"testing"

	"concat/internal/analysis"
	"concat/internal/experiments"
	"concat/internal/obs"
	"concat/internal/testexec"
)

// TestPaperTablesExactCaseCounts gates the work Tables 2 and 3 do on exact,
// machine-independent counts. Every mutant stops at its first killing
// case, so a campaign executes the reference suite (256 cases) plus, per
// mutant, the cases up to and including its first kill — the whole suite
// only for survivors. Under pool isolation the same prefixes are cut into
// 16-case batches. The counts must not depend on the isolation mode or on
// how many mutants run at once.
func TestPaperTablesExactCaseCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Tables 2 and 3 four times")
	}
	tables := []struct {
		name    string
		run     func(*experiments.Setup) (*analysis.Result, error)
		cases   int64
		batches int64
	}{
		{"Table2", func(s *experiments.Setup) (*analysis.Result, error) { return s.Experiment1(nil) }, 256 + 10622, 748},
		{"Table3", func(s *experiments.Setup) (*analysis.Result, error) { return s.Experiment2(nil) }, 256 + 8125, 599},
	}
	for _, m := range []struct {
		name string
		mode testexec.IsolationMode
	}{{"in-process", testexec.IsolateInProcess}, {"pool", testexec.IsolatePool}} {
		for _, parallelism := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/parallel-%d", m.name, parallelism), func(t *testing.T) {
				cfg := experiments.Default()
				cfg.Isolation = m.mode
				cfg.Parallelism = parallelism
				setup, err := experiments.NewSetup(cfg)
				if err != nil {
					t.Fatalf("setup: %v", err)
				}
				for _, tb := range tables {
					met := obs.NewMetrics()
					setup.Config.Metrics = met
					if _, err := tb.run(setup); err != nil {
						t.Fatalf("%s: %v", tb.name, err)
					}
					c := met.Snapshot().Counters
					if got := c["case.total"]; got != tb.cases {
						t.Errorf("%s: case.total = %d, want %d", tb.name, got, tb.cases)
					}
					wantBatches := int64(0)
					if m.mode == testexec.IsolatePool {
						wantBatches = tb.batches
					}
					if got := c["pool.batches"]; got != wantBatches {
						t.Errorf("%s: pool.batches = %d, want %d", tb.name, got, wantBatches)
					}
				}
			})
		}
	}
}
