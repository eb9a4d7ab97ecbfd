// The isolation protocol. Both isolated modes dispatch *batches* of cases
// to case-server worker processes over length-prefixed NDJSON frames, each
// case executing against a freshly resolved component, with fatal deaths
// classified from the worker's exit status.
//
// IsolateSubprocess sends one-case batches and recycles the worker after
// every case, so each case runs in a process of its own and pays a
// fork+exec. IsolatePool amortizes that cost — under a mutation campaign
// it dominates the run — by keeping workers warm, restarting one only when
// it crashes, blows its deadline, or finishes a batch dirty (a timed-out
// case leaves an abandoned goroutine in the worker; reusing that address
// space would break the fresh-world guarantee). One warm worker also
// serves many mutants back to back: each batch frame carries its own
// isolation context, so a campaign re-arms mutants on the child side
// without any per-mutant provisioning — the mutant-schemata amortization.
package testexec

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"concat/internal/bit"
	"concat/internal/driver"
	"concat/internal/obs"
	"concat/internal/sandbox/pool"
)

// DefaultBatchSize is the number of cases dispatched per worker
// round-trip when Options.BatchSize is unset. Large enough to amortize a
// frame round-trip over real work, small enough that a mid-batch crash
// re-dispatches little.
const DefaultBatchSize = 16

// batchRequest is one parent-to-worker frame: the run-level knobs plus a
// slice of cases to execute in order. The per-batch Context lets one warm
// worker serve many mutants — each batch re-arms its own.
type batchRequest struct {
	Component           string          `json:"component"`
	SkipInvariantChecks bool            `json:"skipInvariantChecks,omitempty"`
	SkipReporter        bool            `json:"skipReporter,omitempty"`
	CaseTimeoutMS       int64           `json:"caseTimeoutMs,omitempty"`
	StepBudget          int64           `json:"stepBudget,omitempty"`
	MaxTranscriptBytes  int64           `json:"maxTranscriptBytes,omitempty"`
	Context             json.RawMessage `json:"context,omitempty"`
	Trace               bool            `json:"trace,omitempty"`
	Items               []batchItem     `json:"items"`
}

// batchItem is one case in a batch.
type batchItem struct {
	Case driver.TestCase `json:"case"`
	Seed int64           `json:"seed"`
}

// batchResponse is one worker-to-parent frame: either the result of the
// item at Index (streamed as each case completes, in item order), or the
// end-of-batch marker (Done). Dirty on the Done frame tells the parent the
// worker's address space is no longer a fresh world (an abandoned timeout
// goroutine lives there) and must be recycled. Error without Done is a
// per-item resolution failure; Error with Done poisons the whole batch
// (the worker could not decode the request).
type batchResponse struct {
	Index    int              `json:"index"`
	Result   *CaseResult      `json:"result,omitempty"`
	Error    string           `json:"error,omitempty"`
	BITSites []bit.SiteRecord `json:"bitSites,omitempty"`
	Done     bool             `json:"done,omitempty"`
	Dirty    bool             `json:"dirty,omitempty"`
}

// ServeFromEnv checks the ServerEnv sentinel and, when it is set, turns the
// current process into a batch case server on r/w. It returns false (doing
// nothing) when the sentinel is unset — call it first thing in main or
// TestMain of any binary that should be usable as its own sandbox, and
// exit when it returns true.
func ServeFromEnv(r io.Reader, w io.Writer, resolve Resolver) (bool, error) {
	if os.Getenv(ServerEnv) == "" {
		return false, nil
	}
	return true, ServeCaseBatches(r, w, resolve)
}

// ServeCaseBatches is the worker's serve loop: read a batchRequest frame,
// execute its cases in order — each against a freshly resolved component,
// so every case keeps fresh-world semantics — streaming one batchResponse
// frame per case plus a Done frame, until stdin closes. Fatal failures of
// the code under test kill this process mid-batch by design; the parent
// classifies the death and re-dispatches the batch's remaining cases to a
// fresh worker.
func ServeCaseBatches(r io.Reader, w io.Writer, resolve Resolver) error {
	// A small stack cap makes stack-exhaustion mutants die fast and cheap
	// with a deterministic "fatal error: stack overflow".
	debug.SetMaxStack(64 << 20)
	br := bufio.NewReader(r)
	send := func(resp batchResponse) error {
		payload, err := json.Marshal(resp)
		if err != nil {
			return fmt.Errorf("testexec: batch server encoding response: %w", err)
		}
		if err := pool.WriteFrame(w, payload); err != nil {
			return fmt.Errorf("testexec: batch server writing response: %w", err)
		}
		return nil
	}
	for {
		frame, err := pool.ReadFrame(br, pool.DefaultMaxFrameBytes)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("testexec: batch server reading request: %w", err)
		}
		var req batchRequest
		if err := json.Unmarshal(frame, &req); err != nil {
			// The stream is still frame-aligned; poison this batch and keep
			// serving.
			if err := send(batchResponse{Done: true, Error: fmt.Sprintf("decoding batch request: %v", err)}); err != nil {
				return err
			}
			continue
		}
		dirty := false
		for i, item := range req.Items {
			resp := serveBatchItem(req, item, resolve)
			resp.Index = i
			if resp.Result != nil && resp.Result.Outcome == OutcomeTimeout {
				// The timed-out case's goroutine is abandoned inside this
				// process; the batch finishes, but the worker must not be
				// reused as anyone's fresh world.
				dirty = true
			}
			if err := send(resp); err != nil {
				return err
			}
		}
		if err := send(batchResponse{Index: len(req.Items), Done: true, Dirty: dirty}); err != nil {
			return err
		}
	}
}

// serveBatchItem executes one batch case: fresh resolution (fresh factory,
// fresh mutation engine), bounded run, Finish/trace piggybacked on Extra,
// telemetry dropped on timeout. Resolution errors are reported in-band.
func serveBatchItem(req batchRequest, item batchItem, resolve Resolver) batchResponse {
	if resolve == nil {
		return batchResponse{Error: "case server has no resolver"}
	}
	resolved, err := resolve(req.Component, req.Context)
	if err != nil {
		return batchResponse{Error: fmt.Sprintf("resolving %q: %v", req.Component, err)}
	}
	f := resolved.Factory
	if f == nil {
		return batchResponse{Error: fmt.Sprintf("resolver returned no factory for %q", req.Component)}
	}
	opts := Options{
		Providers:           resolved.Providers,
		SkipInvariantChecks: req.SkipInvariantChecks,
		SkipReporter:        req.SkipReporter,
		CaseTimeout:         time.Duration(req.CaseTimeoutMS) * time.Millisecond,
		StepBudget:          req.StepBudget,
		MaxTranscriptBytes:  req.MaxTranscriptBytes,
	}
	if req.Trace {
		// Collect the worker's call spans in memory; they travel back to
		// the parent inside Extra and are re-parented under the dispatch
		// span there.
		opts.Trace = obs.NewCollector()
	}
	caseTel := bit.NewTelemetry()
	res := runCaseBounded(item.Case, f, f.Spec(), opts, item.Seed, nil, 0, caseTel)
	res.Seed = item.Seed
	if resolved.Finish != nil {
		res.Extra = resolved.Finish()
	}
	if req.Trace {
		res.Extra = obs.WrapExtra(res.Extra, opts.Trace.Spans())
	}
	resp := batchResponse{Result: &res}
	if res.Outcome != OutcomeTimeout {
		// A timed-out case's abandoned goroutine may still be recording;
		// dropping its counts keeps the aggregate deterministic, matching
		// the in-process merge rule.
		resp.BITSites = caseTel.Records()
	}
	return resp
}

// NewWorkerPool builds the worker pool Run uses in the isolated modes: the
// worker argv is Options.IsolationCommand, defaulting to re-executing this
// binary, and ServerEnv is always set. size <= 0 falls back to
// Options.PoolSize, then Options.Parallelism, then 1. Callers that share
// one pool across many Run invocations (a mutation campaign) own Close;
// pass the pool via Options.WorkerPool.
func NewWorkerPool(opts Options, size int) (*pool.Pool, error) {
	argv := opts.IsolationCommand
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("testexec: resolving executable for isolation: %w", err)
		}
		argv = []string{exe}
	}
	if size <= 0 {
		size = opts.PoolSize
	}
	if size <= 0 {
		size = opts.Parallelism
	}
	if size <= 0 {
		size = 1
	}
	return pool.New(pool.Config{
		Argv:  argv,
		Env:   append([]string{ServerEnv + "=1"}, opts.IsolationEnv...),
		Size:  size,
		Retry: opts.SpawnRetry,
	})
}

// poolDispatcher carries the per-run state the batch dispatch loop needs.
type poolDispatcher struct {
	s         *driver.Suite
	opts      Options
	pool      *pool.Pool
	suiteSpan *obs.ActiveSpan
	suiteTel  *bit.Telemetry
	deadline  time.Duration
	// recycle discards every worker after its batch instead of returning
	// it to the pool: IsolateSubprocess's process-per-case guarantee.
	recycle bool
	results []CaseResult
	// stopAt is one past the case Options.Stop stopped the run at; zero
	// while the run goes on.
	stopAt int
}

// runPooled executes the suite in an isolated mode: cases are cut into
// batches in suite order (one case per batch under IsolateSubprocess),
// batches are dispatched to workers (one dispatcher per
// Options.Parallelism), and each case's classification is the same in
// both modes — same outcomes, same details, same seeds, same telemetry
// merge rule.
func runPooled(s *driver.Suite, opts Options, suiteSpan *obs.ActiveSpan, suiteTel *bit.Telemetry) ([]CaseResult, error) {
	p := opts.WorkerPool
	if p == nil {
		var err error
		p, err = NewWorkerPool(opts, 0)
		if err != nil {
			return nil, err
		}
		defer p.Close()
	}
	recycle := opts.Isolation == IsolateSubprocess
	batchSize := opts.BatchSize
	if recycle {
		batchSize = 1
	} else if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	type span struct{ start, end int }
	var batches []span
	for i := 0; i < len(s.Cases); i += batchSize {
		j := i + batchSize
		if j > len(s.Cases) {
			j = len(s.Cases)
		}
		batches = append(batches, span{i, j})
	}
	d := &poolDispatcher{
		s:         s,
		opts:      opts,
		pool:      p,
		suiteSpan: suiteSpan,
		suiteTel:  suiteTel,
		deadline:  isolationDeadline(opts),
		recycle:   recycle,
		results:   make([]CaseResult, len(s.Cases)),
	}
	workers := opts.Parallelism
	if workers > len(batches) {
		workers = len(batches)
	}
	if workers <= 1 {
		for _, b := range batches {
			if d.stopAt > 0 {
				break
			}
			d.dispatchBatch(b.start, b.end)
		}
		if d.stopAt > 0 {
			return d.results[:d.stopAt], nil
		}
		return d.results, nil
	}
	jobs := make(chan span)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range jobs {
				d.dispatchBatch(b.start, b.end)
			}
		}()
	}
	for _, b := range batches {
		jobs <- b
	}
	close(jobs)
	wg.Wait()
	return d.results, nil
}

// dispatchBatch runs cases [start, end) of the suite on pool workers. A
// worker death mid-batch consumes exactly the in-flight case (classified
// from the worker's fate) and re-dispatches the batch's remaining cases to
// a fresh worker exactly once each — a case is never executed twice and
// never lost. A stop ends the batch: nothing past the stopping case is
// dispatched again.
func (d *poolDispatcher) dispatchBatch(start, end int) {
	remaining := start
	sendFailures := 0
	// The first pending case's spans open before the worker is acquired,
	// so its dispatch span covers a recycled worker's process startup.
	first := d.startCase(start)
	for remaining < end {
		w, err := d.pool.Acquire()
		if err != nil {
			d.failRest(first, remaining, end, fmt.Sprintf("spawning case server: %v", err), "spawn-error")
			return
		}
		next, ok := d.runBatchOn(w, remaining, end, first)
		if !ok {
			// Send failed on an idle worker that died between batches. The
			// pool spawns a fresh worker on re-acquire; a bounded number of
			// consecutive failures means spawning itself is broken.
			if sendFailures++; sendFailures >= 3 {
				d.failRest(first, remaining, end, "case server pipe failed repeatedly", "spawn-error")
				return
			}
			continue
		}
		if d.stopAt > 0 {
			return
		}
		if next < end {
			d.opts.Metrics.Inc("pool.redispatches", 1)
			first = d.startCase(next)
		}
		remaining = next
	}
}

// failRest records the same harness error for cases [start, end), the
// first of which already has its spans open.
func (d *poolDispatcher) failRest(first caseTrace, start, end int, detail, exit string) {
	for i := start; i < end && d.stopAt == 0; i++ {
		if i > start {
			first = d.startCase(i)
		}
		d.finishCase(i, first, d.baseResult(i, OutcomeError, detail), exit, nil)
	}
}

// putBack returns a worker whose batch completed cleanly: to the idle set,
// or — under IsolateSubprocess — to the recycler.
func (d *poolDispatcher) putBack(w *pool.Worker) {
	if d.recycle {
		d.pool.Discard(w)
		return
	}
	d.pool.Release(w)
}

// runBatchOn dispatches cases [start, end) to one worker and consumes its
// item frames; cur holds the open spans of case start. It returns the next
// case index still to run (end when the batch completed) and whether the
// request was delivered at all; ok=false means no case was consumed and
// the batch should be retried whole.
func (d *poolDispatcher) runBatchOn(w *pool.Worker, start, end int, cur caseTrace) (next int, ok bool) {
	req := batchRequest{
		Component:           d.s.Component,
		SkipInvariantChecks: d.opts.SkipInvariantChecks,
		SkipReporter:        d.opts.SkipReporter,
		CaseTimeoutMS:       d.opts.CaseTimeout.Milliseconds(),
		StepBudget:          d.opts.StepBudget,
		MaxTranscriptBytes:  d.opts.MaxTranscriptBytes,
		Context:             d.opts.IsolationContext,
		Trace:               d.opts.Trace != nil,
	}
	for i := start; i < end; i++ {
		tc := d.s.Cases[i]
		req.Items = append(req.Items, batchItem{Case: tc, Seed: CaseSeed(d.opts.Seed, tc.ID)})
	}
	payload, err := json.Marshal(req)
	if err != nil {
		d.putBack(w)
		d.failRest(cur, start, end, fmt.Sprintf("encoding isolated case request: %v", err), "encode-error")
		return end, true
	}
	if err := w.Send(payload); err != nil {
		d.pool.Discard(w)
		return start, false
	}
	d.opts.Metrics.Inc("pool.batches", 1)

	for i := start; i < end; i++ {
		if d.stopAt > 0 {
			d.drain(w, end-i)
			return end, true
		}
		if i > start {
			// The worker moves on to case i as soon as it has answered i-1.
			cur = d.startCase(i)
		}
		tc := d.s.Cases[i]
		frame, err := w.Recv(d.deadline)
		if err == pool.ErrRecvTimeout {
			// The worker is wedged beyond cooperation: the parent-side
			// backstop kill.
			d.pool.Discard(w)
			d.opts.Metrics.Inc("isolation.backstop-timeouts", 1)
			res := d.baseResult(i, OutcomeTimeout, fmt.Sprintf("isolated case exceeded the %v harness deadline; subprocess killed", d.deadline))
			d.finishCase(i, cur, res, "backstop-timeout", nil)
			return i + 1, true
		}
		if err != nil {
			// The worker's stream ended mid-batch: the in-flight case killed
			// it. A non-zero exit is the code under test killing the process
			// (criterion (i)); exit 0 without a result is a broken case
			// server, a harness error.
			code, summary := w.Fate()
			d.pool.Discard(w)
			var res CaseResult
			exit := "fatal"
			if code != 0 {
				res = d.baseResult(i, OutcomePanic, "fatal subprocess failure: "+summary)
			} else {
				exit = "no-result"
				res = d.baseResult(i, OutcomeError, "case server exited without a result")
			}
			d.finishCase(i, cur, res, exit, nil)
			return i + 1, true
		}
		var resp batchResponse
		if err := json.Unmarshal(frame, &resp); err != nil {
			d.pool.Discard(w)
			d.finishCase(i, cur, d.baseResult(i, OutcomeError, fmt.Sprintf("decoding batch response: %v", err)), "decode-error", nil)
			return i + 1, true
		}
		if resp.Done {
			if resp.Error != "" {
				// The worker could not decode the request; every case of this
				// batch gets the server error, worker stays healthy.
				d.putBack(w)
				d.failRest(cur, i, end, "case server: "+resp.Error, "server-error")
				return end, true
			}
			d.pool.Discard(w)
			d.finishCase(i, cur, d.baseResult(i, OutcomeError, "case server ended batch early"), "protocol-error", nil)
			return i + 1, true
		}
		if resp.Error != "" {
			// Per-item resolution failure; the worker keeps serving.
			d.finishCase(i, cur, d.baseResult(i, OutcomeError, "case server: "+resp.Error), "server-error", nil)
			continue
		}
		if resp.Result == nil {
			d.pool.Discard(w)
			d.finishCase(i, cur, d.baseResult(i, OutcomeError, "case server sent an empty item response"), "protocol-error", nil)
			return i + 1, true
		}
		res := *resp.Result
		res.CaseID, res.Transaction = tc.ID, tc.Transaction
		d.finishCase(i, cur, res, "ok", resp.BITSites)
	}
	// All items answered; consume the Done frame and honor its Dirty flag.
	frame, err := w.Recv(d.deadline)
	if err == nil {
		var done batchResponse
		if jsonErr := json.Unmarshal(frame, &done); jsonErr == nil && done.Done && !done.Dirty {
			d.putBack(w)
			return end, true
		}
	}
	// Missing or dirty Done frame: every result is in, but the worker is
	// not a trustworthy fresh world anymore — recycle it.
	d.opts.Metrics.Inc("pool.recycles", 1)
	d.pool.Discard(w)
	return end, true
}

// drain consumes what a worker still sends for a batch the run stopped
// inside: pending item frames, then the Done frame. Nothing is recorded —
// no result, telemetry, span or count. A worker that ends the batch clean
// goes back to the pool; any other ending discards it.
func (d *poolDispatcher) drain(w *pool.Worker, pending int) {
	for ; pending >= 0; pending-- {
		frame, err := w.Recv(d.deadline)
		if err != nil {
			break
		}
		// Only the end-of-batch fields matter; item results are skipped
		// without being decoded.
		var resp struct {
			Done  bool   `json:"done"`
			Dirty bool   `json:"dirty"`
			Error string `json:"error"`
		}
		if json.Unmarshal(frame, &resp) != nil {
			break
		}
		if resp.Done {
			if !resp.Dirty && resp.Error == "" {
				d.putBack(w)
				return
			}
			break
		}
	}
	d.pool.Discard(w)
}

// baseResult builds the parent-side classification shell for case i.
func (d *poolDispatcher) baseResult(i int, outcome Outcome, detail string) CaseResult {
	tc := d.s.Cases[i]
	return CaseResult{
		CaseID:      tc.ID,
		Transaction: tc.Transaction,
		Seed:        CaseSeed(d.opts.Seed, tc.ID),
		Outcome:     outcome,
		Detail:      detail,
	}
}

// caseTrace is one case's open case and dispatch spans plus the time the
// case was handed to a worker.
type caseTrace struct {
	caseSpan, dispatch *obs.ActiveSpan
	begin              time.Time
}

// startCase opens case i's case and dispatch spans as the case is handed
// to a worker, so the dispatch span measures the case's time in the
// worker process.
func (d *poolDispatcher) startCase(i int) caseTrace {
	tc := d.s.Cases[i]
	caseSpan := d.opts.Trace.Start(d.suiteSpan.ID(), obs.KindCase, tc.ID)
	caseSpan.SetAttr("transaction", tc.Transaction)
	return caseTrace{
		caseSpan: caseSpan,
		dispatch: d.opts.Trace.Start(caseSpan.ID(), obs.KindSpawn, tc.ID),
		begin:    time.Now(),
	}
}

// finishCase applies the per-case bookkeeping Run's in-process path does
// in runOne: span close-out, child-span re-parenting, oracle check (with
// harness-hook panic containment), telemetry merge (timeouts contribute
// nothing), metrics, and the index-aligned result store.
func (d *poolDispatcher) finishCase(i int, ct caseTrace, res CaseResult, exit string, sites []bit.SiteRecord) {
	tc := d.s.Cases[i]
	ct.dispatch.SetAttr("exit", exit)
	if d.opts.Trace != nil && exit == "ok" {
		// Split the worker's piggybacked spans off Extra and re-parent them
		// under the dispatch span; the report keeps the exact payload bytes
		// an untraced run would have carried.
		payload, childSpans := obs.UnwrapExtra(res.Extra)
		res.Extra = payload
		d.opts.Trace.EmitChildren(ct.dispatch.ID(), childSpans)
	}
	ct.dispatch.End()
	if d.opts.Oracle != nil && res.Outcome == OutcomePass {
		// Oracle panics must become recorded per-case outcomes, never
		// harness crashes — same containment as runCaseInner's hook guard.
		func() {
			defer func() {
				if p := recover(); p != nil {
					res.Outcome = OutcomePanic
					res.Detail = fmt.Sprintf("panic in harness hook: %v", p)
				}
			}()
			if err := d.opts.Oracle.Check(tc.ID, res.Transcript); err != nil {
				res.Outcome = OutcomeOutputDiff
				res.Detail = err.Error()
			}
		}()
	}
	if res.Outcome != OutcomeTimeout {
		d.suiteTel.MergeRecords(sites)
	}
	ct.caseSpan.SetAttr("outcome", res.Outcome.String())
	if res.Method != "" {
		ct.caseSpan.SetAttr("method", res.Method)
	}
	ct.caseSpan.End()
	if d.opts.Metrics != nil {
		d.opts.Metrics.Inc("case.total", 1)
		d.opts.Metrics.Inc("case.outcome."+res.Outcome.String(), 1)
		d.opts.Metrics.Observe("case.duration", tc.ID, time.Since(ct.begin))
	}
	d.results[i] = res
	if d.opts.Stop != nil && d.opts.Stop(res) {
		d.stopAt = i + 1
	}
}
