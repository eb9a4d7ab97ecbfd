// Cross-mode determinism suite: executing a component's generated tests
// in-process, under spawn-per-case subprocess isolation, or on the warm
// worker pool must be unobservable in the results. For every built-in
// component the reports are byte-identical across all three isolation
// modes at serial and parallel scheduling, and the Account mutation
// campaign's kill matrix and canonical coverage artifact are byte-identical
// too. Isolation is a containment strategy, never an oracle input.
package concat

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"concat/internal/core"
	"concat/internal/cover"
	"concat/internal/driver"
	"concat/internal/testexec"
)

// TestMain doubles the test binary as a case server for the isolation
// modes below: when spawned with the executor's ServerEnv sentinel set it
// serves case batches over stdin/stdout and exits instead of running the
// tests.
func TestMain(m *testing.M) {
	if served, err := testexec.ServeFromEnv(os.Stdin, os.Stdout, core.CaseResolver()); served {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// raceFriendlyEnv is appended to every spawned case server's environment:
// the race runtime sleeps atexit_sleep_ms (default 1000 ms) at process
// exit to catch late races, so under `go test -race` each spawn-per-case
// child would serialize a full second of sleeping — a few hundred cases
// turn into minutes of nothing. Disabling the sleep only in the
// short-lived children keeps the run honest (the parent keeps its full
// race configuration) and is a no-op for non-race binaries.
var raceFriendlyEnv = []string{"GORACE=atexit_sleep_ms=0"}

// isolationModes are the three execution strategies under test, in the
// order they appear in failure messages.
var isolationModes = []struct {
	name string
	mode testexec.IsolationMode
}{
	{"in-process", testexec.IsolateInProcess},
	{"subprocess", testexec.IsolateSubprocess},
	{"pool", testexec.IsolatePool},
}

// reportBytes canonicalizes a report for byte comparison: the JSON
// encoding of every result-bearing field. Reports carry no timestamps or
// durations, so nothing needs stripping — trace spans are a side channel
// that never lands in the report.
func reportBytes(t *testing.T, rep *testexec.Report) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Component           string
		Results             []testexec.CaseResult
		AbandonedGoroutines int
		BITSites            any
	}{rep.Component, rep.Results, rep.AbandonedGoroutines, rep.BITSites})
	if err != nil {
		t.Fatalf("encoding report: %v", err)
	}
	return data
}

// runMode executes the suite under one isolation mode at the given
// parallelism and returns the canonical report bytes.
func runMode(t *testing.T, target core.Target, suite *driver.Suite, mode testexec.IsolationMode, parallelism int) []byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	opts := testexec.Options{Seed: 42, Isolation: mode, Parallelism: parallelism}
	if mode != testexec.IsolateInProcess {
		opts.IsolationCommand = []string{exe}
		opts.IsolationEnv = raceFriendlyEnv
	}
	rep, err := target.New(nil).RunSuite(suite, opts)
	if err != nil {
		t.Fatalf("running suite (mode %v, parallelism %d): %v", mode, parallelism, err)
	}
	return reportBytes(t, rep)
}

// TestIsolationModesByteIdenticalReports runs every built-in component's
// generated suite under all three isolation modes at parallelism 1 and 4
// and demands byte-identical reports. The in-process serial run is the
// reference; each of the other five executions must reproduce its bytes.
func TestIsolationModesByteIdenticalReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every built-in suite six times, mostly in child processes")
	}
	targets := core.Targets()
	names := make([]string, 0, len(targets))
	for name := range targets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		target := targets[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			suite, err := target.New(nil).GenerateSuite(driver.Options{Seed: 42})
			if err != nil {
				t.Fatalf("generating suite: %v", err)
			}
			want := runMode(t, target, suite, testexec.IsolateInProcess, 1)
			for _, m := range isolationModes {
				for _, parallelism := range []int{1, 4} {
					if m.mode == testexec.IsolateInProcess && parallelism == 1 {
						continue // the reference itself
					}
					got := runMode(t, target, suite, m.mode, parallelism)
					if string(got) != string(want) {
						t.Errorf("%s report at parallelism %d deviates from the in-process serial report:\ngot:  %s\nwant: %s",
							m.name, parallelism, got, want)
					}
				}
			}
		})
	}
}

// TestIsolationModesByteIdenticalCampaign runs the Account mutation
// campaign under all three isolation modes and demands a byte-identical
// kill matrix and a byte-identical canonical coverage artifact. The
// artifact encoding is the external proof: it contains the mutant×case
// kill matrix, TFM coverage and BIT telemetry, all of which must be pure
// functions of (component, suite, seed) — never of the isolation strategy.
func TestIsolationModesByteIdenticalCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Account campaign three times, twice in child processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	target, err := core.LookupTarget("Account")
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

	artifacts := make(map[string][]byte)
	matrices := make(map[string][]byte)
	for _, m := range isolationModes {
		opts := testexec.Options{Seed: 42, Isolation: m.mode}
		if m.mode != testexec.IsolateInProcess {
			opts.IsolationCommand = []string{exe}
			opts.IsolationEnv = raceFriendlyEnv
		}
		res, err := core.MutationRunOpts("Account", suite, nil, nil, core.MutationOptions{
			Exec:        opts,
			Parallelism: 4,
		})
		if err != nil {
			t.Fatalf("%s campaign: %v", m.name, err)
		}
		matrix, err := json.Marshal(res.Mutants)
		if err != nil {
			t.Fatalf("encoding %s kill matrix: %v", m.name, err)
		}
		matrices[m.name] = matrix
		art, err := cover.FromCampaign(g, suite, res)
		if err != nil {
			t.Fatalf("%s coverage artifact: %v", m.name, err)
		}
		encoded, err := art.Encode()
		if err != nil {
			t.Fatalf("encoding %s coverage artifact: %v", m.name, err)
		}
		artifacts[m.name] = encoded
	}
	for _, m := range isolationModes[1:] {
		if string(matrices[m.name]) != string(matrices["in-process"]) {
			t.Errorf("%s kill matrix deviates from in-process:\ngot:  %s\nwant: %s",
				m.name, matrices[m.name], matrices["in-process"])
		}
		if string(artifacts[m.name]) != string(artifacts["in-process"]) {
			t.Errorf("%s coverage artifact deviates from in-process (%d vs %d bytes)",
				m.name, len(artifacts[m.name]), len(artifacts["in-process"]))
		}
	}
}
