// Pinned inheritance-reuse bytes: the §3.4.2 derivation of SortableObList
// from ObList is pinned at every surface that prints it — the `concat
// derive` report at the CLI defaults and with expanded alternatives, the
// derived suite and its testing history for the paper's configuration, and
// the inheritance example's output. Any change to how subclass methods are
// classified or transactions partitioned that moves one byte fails here.
package concat

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"concat/internal/experiments"
)

// checkDeriveGolden compares got against testdata/derive/name, or rewrites
// the file under -update-campaigns.
func checkDeriveGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "derive", name)
	if *updateCampaigns {
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

// TestDerivedSuiteAndHistoryMatchPinnedBytes pins the derived
// SortableObList suite and its history for the configuration behind every
// published number.
func TestDerivedSuiteAndHistoryMatchPinnedBytes(t *testing.T) {
	setup, err := experiments.NewSetup(experiments.Default())
	if err != nil {
		t.Fatal(err)
	}
	var suite, hist bytes.Buffer
	if err := setup.Derived.Suite.Save(&suite); err != nil {
		t.Fatal(err)
	}
	if err := setup.Derived.History.Save(&hist); err != nil {
		t.Fatal(err)
	}
	checkDeriveGolden(t, "SortableObList.suite.json", suite.Bytes())
	checkDeriveGolden(t, "SortableObList.history.json", hist.Bytes())
}

// TestDeriveOutputsMatchPinnedBytes pins the stdout of `concat derive` and
// of the inheritance example, each run as a program.
func TestDeriveOutputsMatchPinnedBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs programs with the Go toolchain")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available")
	}
	runs := []struct {
		name string
		args []string
	}{
		{"derive.txt", []string{"run", "./cmd/concat", "derive", "-parent", "ObList", "-child", "SortableObList"}},
		{"derive-expand-alt4.txt", []string{"run", "./cmd/concat", "derive", "-parent", "ObList", "-child", "SortableObList", "-expand", "-alt", "4"}},
		{"example-inheritance.txt", []string{"run", "./examples/inheritance"}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(goBin, r.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("go %v: %v\n%s", r.args, err, stderr.Bytes())
			}
			checkDeriveGolden(t, r.name, stdout.Bytes())
		})
	}
}
