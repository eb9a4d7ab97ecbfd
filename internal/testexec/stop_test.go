package testexec_test

// Options.Stop ends a run at the first case it accepts. Whatever the mode —
// in-process serial or parallel, warm pool or spawn-per-case — the report
// and the run log must be exactly those of the suite cut after the
// stopping case, and a pool worker caught mid-batch by the stop must go
// back to the pool, not be recycled.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"concat/internal/core"
	"concat/internal/driver"
	"concat/internal/obs"
	"concat/internal/testexec"
)

// TestMain doubles the test binary as a case server for the isolated
// modes: spawned with the ServerEnv sentinel set, it serves case batches
// on stdin/stdout and exits instead of running the tests.
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

// stopBatch is the pool batch size of these tests, small enough that the
// suite spans several batches.
const stopBatch = 4

// stopSuite is the ObList suite the stop tests run: more than three
// batches of cases.
func stopSuite(t *testing.T) (*core.Component, *driver.Suite) {
	t.Helper()
	tgt, err := core.LookupTarget("ObList")
	if err != nil {
		t.Fatal(err)
	}
	comp := tgt.New(nil)
	suite, err := comp.GenerateSuite(driver.Options{Seed: 42})
	if err != nil {
		t.Fatalf("GenerateSuite: %v", err)
	}
	if len(suite.Cases) < 3*stopBatch+2 {
		t.Fatalf("suite has %d cases, the stop points need at least %d", len(suite.Cases), 3*stopBatch+2)
	}
	return comp, suite
}

// stopReportBytes is the canonical encoding of a report's result-bearing
// fields.
func stopReportBytes(t *testing.T, rep *testexec.Report) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Results             []testexec.CaseResult
		BITSites            any
		AbandonedGoroutines int
	}{rep.Results, rep.BITSites, rep.AbandonedGoroutines})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// stopAtCase returns a Stop predicate that fires on case id.
func stopAtCase(id string) func(testexec.CaseResult) bool {
	return func(c testexec.CaseResult) bool { return c.CaseID == id }
}

// stopModes are the execution modes every stop point runs under.
func stopModes(t *testing.T) []struct {
	name string
	opts testexec.Options
} {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	isolated := func(mode testexec.IsolationMode) testexec.Options {
		return testexec.Options{Seed: 42, Isolation: mode, IsolationCommand: []string{exe}, BatchSize: stopBatch}
	}
	return []struct {
		name string
		opts testexec.Options
	}{
		{"in-process/1", testexec.Options{Seed: 42, Parallelism: 1}},
		{"in-process/4", testexec.Options{Seed: 42, Parallelism: 4}},
		{"pool", isolated(testexec.IsolatePool)},
		{"subprocess", isolated(testexec.IsolateSubprocess)},
	}
}

func TestStopEndsRunAtStoppingCase(t *testing.T) {
	comp, suite := stopSuite(t)
	n := len(suite.Cases)
	full, err := comp.RunSuite(suite, testexec.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	points := []struct {
		name string
		at   int // index of the stopping case; -1 never stops
	}{
		{"first case", 0},
		{"mid-batch", stopBatch + 1},
		{"batch end", 2*stopBatch - 1},
		{"batch start", 2 * stopBatch},
		{"last case", n - 1},
		{"never", -1},
	}
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			// The expectation is the suite cut after the stopping case, run
			// without Stop; a Stop that never fires must give the report of
			// no Stop at all.
			cut := *suite
			stop := func(testexec.CaseResult) bool { return false }
			if p.at >= 0 {
				cut.Cases = suite.Cases[:p.at+1]
				stop = stopAtCase(suite.Cases[p.at].ID)
			}
			var wantLog bytes.Buffer
			want, err := comp.RunSuite(&cut, testexec.Options{Seed: 42, LogWriter: &wantLog})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Results, full.Results[:len(cut.Cases)]) {
				t.Fatalf("the cut suite's results are not a prefix of the full run's")
			}
			wantBytes := stopReportBytes(t, want)
			for _, m := range stopModes(t) {
				var log bytes.Buffer
				opts := m.opts
				opts.Stop = stop
				opts.LogWriter = &log
				got, err := comp.RunSuite(suite, opts)
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				if len(got.Results) != len(cut.Cases) {
					t.Errorf("%s: ran %d cases, want %d", m.name, len(got.Results), len(cut.Cases))
				}
				if !bytes.Equal(stopReportBytes(t, got), wantBytes) {
					t.Errorf("%s: report differs from the suite cut after the stopping case", m.name)
				}
				if log.String() != wantLog.String() {
					t.Errorf("%s: run log differs from the cut suite's log:\ngot:\n%s\nwant:\n%s", m.name, log.String(), wantLog.String())
				}
			}
		})
	}
}

// TestStopCountsOnlyThePrefix: case metrics and case spans stop with the
// run, and the suite span records how many cases executed.
func TestStopCountsOnlyThePrefix(t *testing.T) {
	comp, suite := stopSuite(t)
	at := stopBatch + 1
	for _, m := range stopModes(t) {
		t.Run(m.name, func(t *testing.T) {
			met := obs.NewMetrics()
			col := obs.NewCollector()
			opts := m.opts
			opts.Stop = stopAtCase(suite.Cases[at].ID)
			opts.Metrics = met
			opts.Trace = col
			if _, err := comp.RunSuite(suite, opts); err != nil {
				t.Fatal(err)
			}
			if got := met.Snapshot().Counters["case.total"]; got != int64(at+1) {
				t.Errorf("case.total = %d, want %d", got, at+1)
			}
			cases, executed := 0, ""
			for _, s := range col.Spans() {
				switch s.Kind {
				case obs.KindCase:
					cases++
				case obs.KindSuite:
					executed = s.Attrs["executed"]
				}
			}
			if cases != at+1 {
				t.Errorf("%d case spans, want %d", cases, at+1)
			}
			if want := fmt.Sprint(at + 1); executed != want {
				t.Errorf("suite span executed = %q, want %q", executed, want)
			}
		})
	}
}

// TestStopMidBatchReleasesWorker: a stop inside a pool batch drains the
// worker's remaining frames and returns the worker to the pool, so the
// next run is served by the same warm process.
func TestStopMidBatchReleasesWorker(t *testing.T) {
	comp, suite := stopSuite(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	opts := testexec.Options{
		Seed: 42, Isolation: testexec.IsolatePool, IsolationCommand: []string{exe},
		BatchSize: stopBatch, Metrics: met,
	}
	p, err := testexec.NewWorkerPool(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	opts.WorkerPool = p
	opts.Stop = stopAtCase(suite.Cases[stopBatch+1].ID)
	if _, err := comp.RunSuite(suite, opts); err != nil {
		t.Fatal(err)
	}
	opts.Stop = nil
	rep, err := comp.RunSuite(suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(suite.Cases) {
		t.Fatalf("follow-up run executed %d of %d cases", len(rep.Results), len(suite.Cases))
	}
	counters := met.Snapshot().Counters
	if got := counters["pool.recycles"]; got != 0 {
		t.Errorf("pool.recycles = %d after a mid-batch stop, want 0", got)
	}
	if st := p.Stats(); st.Spawned != 1 || st.Discarded != 0 {
		t.Errorf("pool stats %+v: the stopped run's worker was not reused", st)
	}
}
