// Crash containment: the isolation modes. In-process execution recovers
// panics, but Go offers no recovery from a fatal runtime error — stack
// exhaustion, out-of-memory — and none from code that calls os.Exit; any of
// those in one mutant kills the whole campaign. Both isolated modes execute
// cases in child case-server processes (any binary that calls ServeFromEnv
// when ServerEnv is set) over the one batch protocol in pool_exec.go, and
// classify fatal child deaths from the exit status into OutcomePanic — the
// paper's criterion (i), "the program crashed while running the test
// cases", surviving the crash it records. IsolateSubprocess gives every
// case a process of its own; IsolatePool reuses warm processes.
package testexec

import (
	"encoding/json"
	"time"

	"concat/internal/component"
	"concat/internal/domain"
)

// DefaultIsolationBackstop is the parent-side kill deadline for an
// isolated case when no CaseTimeout is configured. Without it a child
// wedged in a hard loop (no cooperative timeout to trip) would hang the
// campaign forever — the parent must always hold a deadline of last
// resort.
const DefaultIsolationBackstop = 30 * time.Second

// isolationDeadline computes the parent backstop for one isolated case.
// An explicit Options.IsolationBackstop wins; otherwise the backstop is
// derived from CaseTimeout (double it, plus slack for process startup),
// falling back to DefaultIsolationBackstop when no CaseTimeout is set.
func isolationDeadline(opts Options) time.Duration {
	if opts.IsolationBackstop > 0 {
		return opts.IsolationBackstop
	}
	if opts.CaseTimeout > 0 {
		return 2*opts.CaseTimeout + 30*time.Second
	}
	return DefaultIsolationBackstop
}

// IsolationMode selects how the executor contains crashes.
type IsolationMode int

const (
	// IsolateInProcess (the default) runs cases in the harness process;
	// panics are recovered, but fatal runtime errors and os.Exit are not
	// survivable.
	IsolateInProcess IsolationMode = iota
	// IsolateSubprocess executes every case in a fresh child process: the
	// pool dispatcher sends one-case batches and recycles the worker after
	// each case. Fatal failures become per-case OutcomePanic results
	// classified from the exit status.
	IsolateSubprocess
	// IsolatePool keeps the subprocess containment but amortizes process
	// startup: cases are dispatched in batches to a pool of long-lived
	// worker processes (ServeCaseBatches), each case still executing
	// against a freshly resolved component. Workers are restarted only on
	// crash, deadline kill, or a dirty batch, and a mid-batch death
	// consumes exactly the in-flight case — classifications are
	// byte-identical to IsolateSubprocess.
	IsolatePool
)

// ServerEnv is the environment sentinel the executor sets when spawning a
// case server. A binary that wants to be usable as its own sandbox calls
// ServeFromEnv first thing in main (or TestMain); any non-empty value
// turns the process into a batch case server.
const ServerEnv = "CONCAT_CASE_SERVER"

// Resolved is a Resolver's answer: the factory to run the case against,
// the providers completing its structured parameters, and an optional
// Finish hook whose return value travels back to the parent in
// CaseResult.Extra (mutation analysis ships reach/infection flags this
// way).
type Resolved struct {
	Factory   component.Factory
	Providers map[string]domain.Provider
	Finish    func() json.RawMessage
}

// Resolver maps a component name plus the run's opaque isolation context
// onto the component to execute. It runs inside the case server process.
type Resolver func(componentName string, context json.RawMessage) (Resolved, error)
