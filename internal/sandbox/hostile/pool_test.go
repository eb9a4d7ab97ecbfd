// Regression suite for the warm worker pool (IsolatePool): the pool must
// keep every containment guarantee spawn-per-case isolation earned —
// fatal cases kill only their worker, a mid-batch death consumes exactly
// the in-flight case and re-dispatches the rest once, a wedged worker is
// backstop-killed, a dirty worker (abandoned timeout goroutine) is never
// reused — all while classifications stay byte-identical to the spawn
// path.
package hostile_test

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"concat/internal/mutation"
	"concat/internal/sandbox/hostile"
	"concat/internal/sandbox/pool"
	"concat/internal/testexec"
)

// pooledOpts configures a run whose cases execute in warm pool workers:
// this test binary re-executed with ServerEnv set (see TestMain).
func pooledOpts(t *testing.T, ctx hostile.Context) testexec.Options {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	raw, err := json.Marshal(ctx)
	if err != nil {
		t.Fatalf("marshal context: %v", err)
	}
	return testexec.Options{
		Seed:             42,
		Isolation:        testexec.IsolatePool,
		IsolationCommand: []string{exe},
		IsolationContext: raw,
	}
}

// sharedPool builds a pool the test owns, so it can assert on lifecycle
// stats (spawns prove restarts, restarts prove containment).
func sharedPool(t *testing.T, opts testexec.Options, size int) *pool.Pool {
	t.Helper()
	p, err := testexec.NewWorkerPool(opts, size)
	if err != nil {
		t.Fatalf("NewWorkerPool: %v", err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestPoolMidBatchCrashRedispatchesExactlyOnce is the pool's core
// containment claim. ExitMidBatch passes the first case a worker serves
// and kills the process on the second — so a 4-case batch on one warm
// worker must unfold as: pass, crash (worker 1 dies mid-batch), pass,
// crash (worker 2, fed the re-dispatched remainder, dies the same way).
// Two workers spawned, two discarded, every case classified exactly once.
func TestPoolMidBatchCrashRedispatchesExactlyOnce(t *testing.T) {
	opts := pooledOpts(t, hostile.Context{Behavior: hostile.ExitMidBatch})
	opts.BatchSize = 4
	p := sharedPool(t, opts, 1)
	opts.WorkerPool = p

	s := suiteFor(hostile.ExitMidBatch, 4)
	rep, err := testexec.Run(s, hostile.NewFactory(hostile.ExitMidBatch), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []testexec.Outcome{
		testexec.OutcomePass, testexec.OutcomePanic,
		testexec.OutcomePass, testexec.OutcomePanic,
	}
	if len(rep.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(rep.Results), len(want))
	}
	for i, res := range rep.Results {
		if res.Outcome != want[i] {
			t.Errorf("case %s: outcome %s (detail %q), want %s", res.CaseID, res.Outcome, res.Detail, want[i])
		}
		if res.Outcome == testexec.OutcomePanic &&
			(!strings.Contains(res.Detail, "fatal subprocess failure") || !strings.Contains(res.Detail, "exit status 66")) {
			t.Errorf("case %s: crash detail %q, want the spawn-path fatal summary", res.CaseID, res.Detail)
		}
	}
	st := p.Stats()
	if st.Spawned != 2 || st.Discarded != 2 {
		t.Errorf("pool stats %+v, want exactly 2 spawns / 2 discards — one restart per mid-batch crash", st)
	}

	// The surviving cases ran in a fresh world: their transcripts must be
	// byte-identical to a benign case's (first-instance ExitMidBatch pokes
	// behave exactly like Benign).
	benign, err := testexec.Run(suiteFor(hostile.Benign, 4), hostile.NewFactory(hostile.Benign), testexec.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if rep.Results[i].Transcript != benign.Results[i].Transcript {
			t.Errorf("case %s transcript diverged from the fresh-world reference:\n%q\nvs\n%q",
				rep.Results[i].CaseID, rep.Results[i].Transcript, benign.Results[i].Transcript)
		}
	}
}

// TestIsolationNeverReusesWorker pins IsolateSubprocess's fresh-process
// guarantee on the pool dispatcher: ExitMidBatch kills a worker on the
// second case it serves, so every case passes only if each one ran in a
// process of its own.
func TestIsolationNeverReusesWorker(t *testing.T) {
	opts := isolatedOpts(t, hostile.Context{Behavior: hostile.ExitMidBatch})
	p := sharedPool(t, opts, 1)
	opts.WorkerPool = p

	rep, err := testexec.Run(suiteFor(hostile.ExitMidBatch, 4), hostile.NewFactory(hostile.ExitMidBatch), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, res := range rep.Results {
		if res.Outcome != testexec.OutcomePass {
			t.Errorf("case %s: outcome %s (detail %q), want pass in a fresh process", res.CaseID, res.Outcome, res.Detail)
		}
	}
	if st := p.Stats(); st.Spawned != 4 || st.Discarded != 4 {
		t.Errorf("pool stats %+v, want 4 spawns / 4 discards — one process per case", st)
	}
}

// TestPoolContainsFatalBehaviors mirrors the spawn-mode containment proof:
// a worker killed by os.Exit or stack exhaustion yields the same crash
// outcome with the same deterministic summary, batch dispatch or not.
func TestPoolContainsFatalBehaviors(t *testing.T) {
	wantDetail := map[hostile.Behavior]string{
		hostile.Exit:    "exit status 66",
		hostile.Recurse: "stack overflow",
	}
	for _, b := range hostile.FatalBehaviors() {
		t.Run(string(b), func(t *testing.T) {
			opts := pooledOpts(t, hostile.Context{Behavior: b})
			rep, err := testexec.Run(suiteFor(b, 1), hostile.NewFactory(b), opts)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			res := rep.Results[0]
			if res.Outcome != testexec.OutcomePanic {
				t.Fatalf("outcome = %s (detail %q), want crash", res.Outcome, res.Detail)
			}
			if !strings.Contains(res.Detail, "fatal subprocess failure") ||
				!strings.Contains(res.Detail, wantDetail[b]) {
				t.Errorf("detail = %q, want fatal summary containing %q", res.Detail, wantDetail[b])
			}
		})
	}
}

// TestPoolMatchesSubprocessReports: for a suite mixing passes and
// recoverable failures, the pool's report must be bit-for-bit the spawn
// path's report — same outcomes, details, transcripts, seeds, telemetry.
func TestPoolMatchesSubprocessReports(t *testing.T) {
	for _, b := range []hostile.Behavior{hostile.Benign, hostile.PanicOnInvoke, hostile.BurnBudget} {
		t.Run(string(b), func(t *testing.T) {
			s := suiteFor(b, 4)
			mkOpts := func(mode testexec.IsolationMode) testexec.Options {
				opts := isolatedOpts(t, hostile.Context{Behavior: b})
				opts.Isolation = mode
				opts.StepBudget = 500
				opts.MaxTranscriptBytes = 8 << 10
				return opts
			}
			spawn, err := testexec.Run(s, hostile.NewFactory(b), mkOpts(testexec.IsolateSubprocess))
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := testexec.Run(s, hostile.NewFactory(b), mkOpts(testexec.IsolatePool))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(spawn.Results, pooled.Results) {
				t.Errorf("results diverge between spawn and pool isolation:\n%+v\nvs\n%+v", spawn.Results, pooled.Results)
			}
			if !reflect.DeepEqual(spawn.BITSites, pooled.BITSites) {
				t.Errorf("BITSites diverge:\n%+v\nvs\n%+v", spawn.BITSites, pooled.BITSites)
			}
		})
	}
}

// TestPoolBackstopKillsWedgedWorker: a worker hung beyond cooperation (no
// in-child CaseTimeout to trip) is killed at the parent's deadline with
// the spawn path's timeout classification, and the batch's remaining case
// is re-dispatched to a fresh worker — the budget-kill restart path.
func TestPoolBackstopKillsWedgedWorker(t *testing.T) {
	opts := pooledOpts(t, hostile.Context{Behavior: hostile.InfiniteLoop})
	opts.IsolationBackstop = 500 * time.Millisecond
	opts.BatchSize = 2
	p := sharedPool(t, opts, 1)
	opts.WorkerPool = p

	rep, err := testexec.Run(suiteFor(hostile.InfiniteLoop, 2), hostile.NewFactory(hostile.InfiniteLoop), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, res := range rep.Results {
		if res.Outcome != testexec.OutcomeTimeout {
			t.Errorf("case %s: outcome %s (detail %q), want timeout", res.CaseID, res.Outcome, res.Detail)
		}
		if !strings.Contains(res.Detail, "harness deadline; subprocess killed") {
			t.Errorf("case %s: detail %q, want the backstop-kill classification", res.CaseID, res.Detail)
		}
	}
	if st := p.Stats(); st.Spawned != 2 || st.Discarded != 2 {
		t.Errorf("pool stats %+v, want 2 spawns / 2 discards — each wedged worker killed and replaced", st)
	}
}

// TestPoolRecyclesDirtyWorker: a case that trips the in-child CaseTimeout
// completes cooperatively, but it abandons a goroutine inside the worker —
// the worker is no longer anyone's fresh world, so the pool must restart
// it between batches instead of reusing it.
func TestPoolRecyclesDirtyWorker(t *testing.T) {
	opts := pooledOpts(t, hostile.Context{Behavior: hostile.InfiniteLoop})
	opts.CaseTimeout = 100 * time.Millisecond
	opts.BatchSize = 1
	p := sharedPool(t, opts, 1)
	opts.WorkerPool = p

	rep, err := testexec.Run(suiteFor(hostile.InfiniteLoop, 2), hostile.NewFactory(hostile.InfiniteLoop), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, res := range rep.Results {
		if res.Outcome != testexec.OutcomeTimeout {
			t.Errorf("case %s: outcome %s (detail %q), want the child's cooperative timeout", res.CaseID, res.Outcome, res.Detail)
		}
		if !strings.Contains(res.Detail, "goroutine abandoned") {
			t.Errorf("case %s: detail %q, want the in-child timeout classification", res.CaseID, res.Detail)
		}
	}
	// The harness itself abandoned nothing — the leak lives (and dies) in
	// the discarded workers.
	if rep.AbandonedGoroutines != 0 {
		t.Errorf("AbandonedGoroutines = %d in the parent, want 0", rep.AbandonedGoroutines)
	}
	if st := p.Stats(); st.Spawned != 2 || st.Discarded != 2 {
		t.Errorf("pool stats %+v, want 2 spawns / 2 discards — dirty workers must not be reused", st)
	}
}

// TestPoolShipsMutantAndFlags: the per-batch isolation context arms a
// mutant inside the warm worker and reach/infection flags come back per
// case — the wire contract mutation campaigns ride on, now amortized.
func TestPoolShipsMutantAndFlags(t *testing.T) {
	m := mutation.Mutant{
		ID: "soft", Site: hostile.StepSite, Method: "Step",
		Operator: mutation.OpRepLoc, Replacement: "soft",
	}
	opts := pooledOpts(t, hostile.Context{Mutant: &m})
	rep, err := testexec.Run(hostile.MutSuite(3), hostile.NewMutFactory(nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Outcome != testexec.OutcomePass {
		t.Fatalf("outcome = %s (detail %q)", res.Outcome, res.Detail)
	}
	var flags hostile.Flags
	if err := json.Unmarshal(res.Extra, &flags); err != nil {
		t.Fatalf("decoding Extra %q: %v", res.Extra, err)
	}
	if !flags.Reached || flags.Infected {
		t.Errorf("flags = %+v, want reached-only", flags)
	}
}

// TestPoolFatalMutantKilled: the fatal "hard" mutant (os.Exit) kills its
// warm worker and the parent classifies the crash kill with the same
// detail as spawn-mode — PR 2's containment, preserved under batching.
func TestPoolFatalMutantKilled(t *testing.T) {
	m := mutation.Mutant{
		ID: "hard", Site: hostile.StepSite, Method: "Step",
		Operator: mutation.OpRepGlob, Replacement: "hard",
	}
	opts := pooledOpts(t, hostile.Context{Mutant: &m})
	rep, err := testexec.Run(hostile.MutSuite(3), hostile.NewMutFactory(nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Outcome != testexec.OutcomePanic {
		t.Fatalf("outcome = %s (detail %q), want crash", res.Outcome, res.Detail)
	}
	if !strings.Contains(res.Detail, "exit status 66") {
		t.Errorf("detail = %q", res.Detail)
	}
}
