// Pinned campaign bytes: the cross-mode determinism suite proves the
// isolation modes agree with each other, which a drift shared by every
// mode would pass. This suite pins the absolute bytes instead. The kill
// matrices and canonical coverage artifacts of four component campaigns,
// and the kill matrices of the paper's Tables 2 and 3, are recorded under
// testdata/campaigns; in-process, pool and spawn-per-case runs must all
// reproduce them byte for byte.
package concat

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"concat/internal/analysis"
	"concat/internal/core"
	"concat/internal/cover"
	"concat/internal/driver"
	"concat/internal/experiments"
	"concat/internal/testexec"
)

var updateCampaigns = flag.Bool("update-campaigns", false, "rewrite the pinned files under testdata/campaigns and testdata/derive from an in-process run")

// goldenCampaignComponents are the instrumented components whose campaigns
// are pinned.
var goldenCampaignComponents = []string{"Account", "ObList", "OrderSystem", "SortableObList"}

// killMatrixBytes renders a campaign's kill matrix as indented JSON.
func killMatrixBytes(t *testing.T, res *analysis.Result) []byte {
	t.Helper()
	data, err := json.MarshalIndent(res.KillMatrix(), "", "  ")
	if err != nil {
		t.Fatalf("encoding kill matrix: %v", err)
	}
	return append(data, '\n')
}

// checkGolden compares got against testdata/campaigns/name, or rewrites
// the file under -update-campaigns when the run is the in-process
// reference.
func checkGolden(t *testing.T, mode testexec.IsolationMode, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "campaigns", name)
	if *updateCampaigns && mode == testexec.IsolateInProcess {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading pinned %s (regenerate with -update-campaigns): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s deviates from the pinned bytes: %s", name, firstLineDiff(want, got))
	}
}

// isolatedOpts returns execution options for mode, with this test binary
// as the case server in the isolated modes.
func isolatedOpts(t *testing.T, mode testexec.IsolationMode) testexec.Options {
	t.Helper()
	opts := testexec.Options{Seed: 42, Isolation: mode}
	if mode != testexec.IsolateInProcess {
		exe, err := os.Executable()
		if err != nil {
			t.Fatalf("os.Executable: %v", err)
		}
		opts.IsolationCommand = []string{exe}
		opts.IsolationEnv = raceFriendlyEnv
	}
	return opts
}

// TestComponentCampaignsMatchPinnedBytes runs every pinned component
// campaign (seed 42) in each isolation mode and compares the kill matrix
// and the encoded coverage artifact with the recorded bytes.
func TestComponentCampaignsMatchPinnedBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four campaigns in three isolation modes")
	}
	for _, name := range goldenCampaignComponents {
		t.Run(name, func(t *testing.T) {
			target, err := core.LookupTarget(name)
			if err != nil {
				t.Fatal(err)
			}
			comp := target.New(nil)
			suite, err := comp.GenerateSuite(driver.Options{Seed: 42})
			if err != nil {
				t.Fatalf("generating suite: %v", err)
			}
			g, err := comp.Spec().TFM()
			if err != nil {
				t.Fatalf("building TFM: %v", err)
			}
			for _, m := range isolationModes {
				res, err := core.MutationRunOpts(name, suite, nil, nil, core.MutationOptions{
					Exec:        isolatedOpts(t, m.mode),
					Parallelism: 2,
				})
				if err != nil {
					t.Fatalf("%s campaign: %v", m.name, err)
				}
				art, err := cover.FromCampaign(g, suite, res)
				if err != nil {
					t.Fatalf("%s coverage artifact: %v", m.name, err)
				}
				encoded, err := art.Encode()
				if err != nil {
					t.Fatalf("encoding %s coverage artifact: %v", m.name, err)
				}
				t.Run(m.name, func(t *testing.T) {
					checkGolden(t, m.mode, name+".killmatrix.json", killMatrixBytes(t, res))
					checkGolden(t, m.mode, name+".cover.json", encoded)
				})
			}
		})
	}
}

// TestPaperTablesMatchPinnedBytes runs Tables 2 and 3 with the published
// configuration in each isolation mode and compares their kill matrices
// with the recorded bytes.
func TestPaperTablesMatchPinnedBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Tables 2 and 3 in three isolation modes")
	}
	for _, m := range isolationModes {
		t.Run(m.name, func(t *testing.T) {
			if raceEnabled && m.mode == testexec.IsolateSubprocess {
				// About 19,000 process spawns of a race-instrumented binary
				// take minutes; the pool leg runs the same dispatcher, and
				// the component campaigns cover spawn-per-case under -race.
				t.Skip("spawn-per-case Tables 2+3 are too slow under the race detector")
			}
			cfg := experiments.Default()
			cfg.Isolation = m.mode
			cfg.Parallelism = 2
			setup, err := experiments.NewSetup(cfg)
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			t2, err := setup.Experiment1(nil)
			if err != nil {
				t.Fatalf("Table 2: %v", err)
			}
			checkGolden(t, m.mode, "Table2.killmatrix.json", killMatrixBytes(t, t2))
			t3, err := setup.Experiment2(nil)
			if err != nil {
				t.Fatalf("Table 3: %v", err)
			}
			checkGolden(t, m.mode, "Table3.killmatrix.json", killMatrixBytes(t, t3))
		})
	}
}
