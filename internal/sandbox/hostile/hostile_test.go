package hostile_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"concat/internal/domain"
	"concat/internal/driver"
	"concat/internal/mutation"
	"concat/internal/sandbox/hostile"
	"concat/internal/testexec"
)

// TestMain doubles this test binary as a case server: when the executor
// spawns it with ServerEnv set, it serves isolated case batches and exits
// instead of running the test suite. This is the standard pattern for exercising
// subprocess isolation from a test.
func TestMain(m *testing.M) {
	if served, err := testexec.ServeFromEnv(os.Stdin, os.Stdout, hostile.CaseResolver()); served {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// suiteFor builds the per-behavior suite: cases that poke twice and then
// destroy — except for reporter behaviors, which need a case that ends
// without a destructor so the reporter actually runs.
func suiteFor(b hostile.Behavior, cases int) *driver.Suite {
	withDestroy := b != hostile.PanicOnReporter && b != hostile.FloodReporter
	s := &driver.Suite{Component: hostile.Name}
	for i := 0; i < cases; i++ {
		calls := []driver.Call{
			{MethodID: "m1", Method: "Hostile"},
			{MethodID: "m2", Method: "Poke"},
			{MethodID: "m2", Method: "Poke"},
		}
		if withDestroy {
			calls = append(calls, driver.Call{MethodID: "m3", Method: "~Hostile"})
		}
		s.Cases = append(s.Cases, driver.TestCase{
			ID:          fmt.Sprintf("H%d", i),
			Transaction: "n1>n2>n3",
			Calls:       calls,
		})
	}
	return s
}

// boundedOpts are the sandbox bounds every containment run uses: a step
// budget for the budget burner, a transcript cap for the flooders, and a
// case timeout for the hang.
func boundedOpts() testexec.Options {
	return testexec.Options{
		Seed:               42,
		StepBudget:         500,
		MaxTranscriptBytes: 8 << 10,
		CaseTimeout:        100 * time.Millisecond,
	}
}

// wantOutcome maps each survivable behavior to the outcome the executor
// must record for it.
func wantOutcome(b hostile.Behavior) testexec.Outcome {
	switch b {
	case hostile.Benign:
		return testexec.OutcomePass
	case hostile.InfiniteLoop:
		return testexec.OutcomeTimeout
	case hostile.BurnBudget, hostile.FloodTranscript, hostile.FloodReporter:
		return testexec.OutcomeResourceExhausted
	default:
		return testexec.OutcomePanic
	}
}

// TestEveryHostileBehaviorYieldsRecordedOutcome is the kit's core claim:
// every failure mode that is survivable in-process becomes a recorded
// per-case outcome — the suite itself surviving is the containment proof.
func TestEveryHostileBehaviorYieldsRecordedOutcome(t *testing.T) {
	for _, b := range hostile.Behaviors() {
		t.Run(string(b), func(t *testing.T) {
			rep, err := testexec.Run(suiteFor(b, 1), hostile.NewFactory(b), boundedOpts())
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			res := rep.Results[0]
			if want := wantOutcome(b); res.Outcome != want {
				t.Fatalf("outcome = %s, want %s (detail %q)", res.Outcome, want, res.Detail)
			}
			if res.CaseID != "H0" || res.Seed == 0 {
				t.Errorf("result lost case identity: %+v", res)
			}
			if b == hostile.InfiniteLoop && rep.AbandonedGoroutines != 1 {
				t.Errorf("AbandonedGoroutines = %d, want 1", rep.AbandonedGoroutines)
			}
		})
	}
}

// TestHostileReportsIdenticalAcrossParallelism runs every behavior's suite
// at parallelism 1, 4 and GOMAXPROCS and requires bit-for-bit identical
// reports — failure containment must not cost determinism.
func TestHostileReportsIdenticalAcrossParallelism(t *testing.T) {
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, b := range hostile.Behaviors() {
		t.Run(string(b), func(t *testing.T) {
			var reference *testexec.Report
			for _, p := range levels {
				opts := boundedOpts()
				opts.Parallelism = p
				rep, err := testexec.Run(suiteFor(b, 4), hostile.NewFactory(b), opts)
				if err != nil {
					t.Fatalf("Run(parallelism=%d): %v", p, err)
				}
				if reference == nil {
					reference = rep
					continue
				}
				if !reflect.DeepEqual(reference, rep) {
					t.Fatalf("report at parallelism=%d differs from parallelism=%d:\n%+v\nvs\n%+v",
						p, levels[0], rep, reference)
				}
			}
		})
	}
}

// isolatedOpts configures a run whose cases execute in child case servers:
// this test binary re-executed with ServerEnv set (see TestMain).
func isolatedOpts(t *testing.T, ctx hostile.Context) testexec.Options {
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
		Isolation:        testexec.IsolateSubprocess,
		IsolationCommand: []string{exe},
		IsolationContext: raw,
	}
}

// TestIsolationContainsFatalBehaviors is the crash-containment proof: a
// component that calls os.Exit or exhausts the stack kills only its case
// server; the parent records a crash outcome with a deterministic summary.
func TestIsolationContainsFatalBehaviors(t *testing.T) {
	wantDetail := map[hostile.Behavior]string{
		hostile.Exit:    "exit status 66",
		hostile.Recurse: "stack overflow",
	}
	for _, b := range hostile.FatalBehaviors() {
		t.Run(string(b), func(t *testing.T) {
			opts := isolatedOpts(t, hostile.Context{Behavior: b})
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

// TestIsolationMatchesInProcessForBenignRuns: the subprocess mode is a
// containment wrapper, not a different semantics — a well-behaved case
// produces the same outcome and transcript either way.
func TestIsolationMatchesInProcessForBenignRuns(t *testing.T) {
	s := suiteFor(hostile.Benign, 2)
	inProc, err := testexec.Run(s, hostile.NewFactory(hostile.Benign), testexec.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	iso, err := testexec.Run(s, hostile.NewFactory(hostile.Benign),
		isolatedOpts(t, hostile.Context{Behavior: hostile.Benign}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range inProc.Results {
		a, b := inProc.Results[i], iso.Results[i]
		if a.Outcome != b.Outcome || a.Transcript != b.Transcript || a.Seed != b.Seed {
			t.Errorf("case %s differs:\nin-process: %+v\nisolated:   %+v", a.CaseID, a, b)
		}
	}
	// The assertion-site telemetry crosses the process boundary on its own
	// wire field, so the suite aggregate must match too.
	if !reflect.DeepEqual(inProc.BITSites, iso.BITSites) {
		t.Errorf("BITSites differ:\nin-process: %+v\nisolated:   %+v", inProc.BITSites, iso.BITSites)
	}
	if len(inProc.BITSites) == 0 {
		t.Error("benign hostile run recorded no assertion sites; telemetry not wired")
	}
}

// TestIsolationPanicBehaviorsRecordedInChild: recoverable panics under
// isolation are still classified by the child's own executor (the child
// does not die), proving the wire round-trip preserves classification.
func TestIsolationPanicBehaviorsRecordedInChild(t *testing.T) {
	opts := isolatedOpts(t, hostile.Context{Behavior: hostile.PanicOnInvoke})
	rep, err := testexec.Run(suiteFor(hostile.PanicOnInvoke, 1),
		hostile.NewFactory(hostile.PanicOnInvoke), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Outcome != testexec.OutcomePanic {
		t.Fatalf("outcome = %s (detail %q)", res.Outcome, res.Detail)
	}
	if !strings.Contains(res.Detail, "hostile: method panics") {
		t.Errorf("detail = %q, want the child's recovered panic message", res.Detail)
	}
}

// TestIsolationShipsMutantAndFlags: the opaque isolation context arms a
// mutant inside the case server, and the reach/infection flags come back in
// CaseResult.Extra — the wire protocol mutation analysis rides on.
func TestIsolationShipsMutantAndFlags(t *testing.T) {
	tests := []struct {
		name   string
		mutant mutation.Mutant
		want   hostile.Flags
	}{
		{
			name: "equivalent local replacement",
			mutant: mutation.Mutant{
				ID: "soft", Site: hostile.StepSite, Method: "Step",
				Operator: mutation.OpRepLoc, Replacement: "soft",
			},
			want: hostile.Flags{Reached: true, Infected: false},
		},
		{
			name: "infectious constant replacement",
			mutant: mutation.Mutant{
				ID: "req5", Site: hostile.StepSite, Method: "Step",
				Operator: mutation.OpRepReq, Replacement: "5",
			},
			want: hostile.Flags{Reached: true, Infected: true},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := tt.mutant
			if m.Operator == mutation.OpRepReq {
				m.Constant = domain.Int(5)
			}
			opts := isolatedOpts(t, hostile.Context{Mutant: &m})
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
			if flags != tt.want {
				t.Errorf("flags = %+v, want %+v", flags, tt.want)
			}
		})
	}
}

// TestFatalMutantKilledUnderIsolation: arming the "hard" global replacement
// routes the mutant into os.Exit — the case server dies and the parent
// classifies a crash kill, end to end through the mutation wire format.
func TestFatalMutantKilledUnderIsolation(t *testing.T) {
	m := mutation.Mutant{
		ID: "hard", Site: hostile.StepSite, Method: "Step",
		Operator: mutation.OpRepGlob, Replacement: "hard",
	}
	opts := isolatedOpts(t, hostile.Context{Mutant: &m})
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
