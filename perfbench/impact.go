package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"concat/internal/core"
	"concat/internal/cover"
	"concat/internal/driver"
	"concat/internal/impact"
	"concat/internal/obs"
	"concat/internal/store"
	"concat/internal/testexec"
	"concat/internal/tfm"
	"concat/internal/tspec"
)

const whyImpact = "the documented ObList RemoveAt edit (hi 5 to 3) re-run warm: tspec diff, two suite generations and the per-case store path, with no mutants"

// The documented edit's partition (EXPERIMENTS.md). The edit, like the
// spec it applies to, is fixed, so --seed does not change this workload.
const wantKept, wantRerun, wantRegenerated = 34, 22, 173

type impactEdit struct {
	comp     *core.Component
	gen      driver.Options
	old, new *tspec.Spec
	// primed holds the entry documents the old revision's run stored; each
	// op starts from a fresh store holding exactly these.
	primed map[string][]byte
	// coldReport/coldCoverage are the bytes of a cold generate + run of the
	// new revision, which every impact run must reproduce.
	coldReport, coldCoverage []byte
	// timed wraps each traced op's store; its counters run over the phase.
	timed *timedStore
	// selfMS sums each traced run's wall time not covered by a suite span
	// or a store call.
	selfMS float64
}

func setupImpact(_ int64, _ bool) (instance, error) {
	t, err := core.LookupTarget("ObList")
	if err != nil {
		return nil, err
	}
	comp := t.New(nil)
	old := comp.Spec()
	edited := old.Clone()
	found := false
	for i, m := range edited.Methods {
		if m.Name == "RemoveAt" {
			edited.Methods[i].Params[0].Domain.Hi = 3
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("ObList has no RemoveAt method")
	}
	ie := &impactEdit{
		comp: comp,
		gen:  driver.Options{Seed: 42, MaxAlternatives: 4, Enum: tfm.EnumOptions{LoopBound: 1}},
		old:  old,
		new:  edited,
	}

	// Prime: an identical-revision run over an empty store records every
	// case of the old suite.
	rec := &recordingStore{Backend: store.NewMem()}
	if _, err := ie.runner(rec).Run(old, old); err != nil {
		return nil, fmt.Errorf("priming: %w", err)
	}
	mem := rec.Backend.(*store.Mem)
	ie.primed = map[string][]byte{}
	for _, id := range rec.ids {
		doc, ok, err := mem.GetRaw(id)
		if err != nil || !ok {
			return nil, fmt.Errorf("priming: reading entry %s back: ok=%v err=%v", id, ok, err)
		}
		ie.primed[id] = doc
	}

	suite, err := driver.Generate(edited, ie.gen)
	if err != nil {
		return nil, err
	}
	cold, err := comp.RunSuite(suite, testexec.Options{})
	if err != nil {
		return nil, err
	}
	g, err := edited.TFM()
	if err != nil {
		return nil, err
	}
	art, err := cover.FromRun(g, suite, cold)
	if err != nil {
		return nil, err
	}
	if ie.coldReport, err = json.Marshal(cold); err != nil {
		return nil, err
	}
	if ie.coldCoverage, err = art.Encode(); err != nil {
		return nil, err
	}
	return ie, nil
}

func (ie *impactEdit) runner(st store.Backend) *impact.Runner {
	return &impact.Runner{Factory: ie.comp.Factory, Providers: ie.comp.Providers, Gen: ie.gen, Store: st}
}

// primedStore returns a fresh mem store holding exactly the primed entries.
func (ie *impactEdit) primedStore() (*store.Mem, error) {
	m := store.NewMem()
	for id, doc := range ie.primed {
		if err := m.PutRaw(id, doc); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (ie *impactEdit) close() {}

func (ie *impactEdit) warmup() error {
	ph := &phase{}
	for i := 0; i < 3; i++ {
		if err := ie.op(ph, nil); err != nil {
			return err
		}
	}
	if ph.failed > 0 {
		return fmt.Errorf("the warm-up pass produced wrong output")
	}
	return nil
}

func (ie *impactEdit) measure(deadline time.Time, lay *layers) (*phase, error) {
	ph := &phase{}
	for keepGoing(deadline, ph) {
		if err := ie.op(ph, lay); err != nil {
			return nil, err
		}
	}
	tail, label := tailOf(ph.latMS)
	ph.add("impact_p50_ms", "ms", median(ph.latMS), fmt.Sprintf("%d runs", len(ph.latMS)))
	ph.add("impact_tail_ms", "ms", tail, label)
	if lay != nil {
		if err := ie.layers(lay, ph); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// layers publishes the traced phase's per-op figures, and times the
// generation and diff calls an impact run makes, median of a few calls.
func (ie *impactEdit) layers(lay *layers, ph *phase) error {
	ops := len(ph.latMS)
	lay.setSpanLayers(ops)
	lay.setStoreLayers(ie.timed, ops)
	lay.set("impact.self_ms", ie.selfMS/float64(ops))
	lay.set("impact.kept", float64(ph.ledger["impact.kept"]))
	lay.set("impact.rerun", float64(ph.ledger["impact.rerun"]))
	lay.set("impact.regenerated", float64(ph.ledger["impact.regenerated"]))
	var gen, diff, trans []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		for _, s := range []*tspec.Spec{ie.old, ie.new} {
			if _, err := driver.Generate(s, ie.gen); err != nil {
				return err
			}
		}
		gen = append(gen, msSince(start))
		start = time.Now()
		tspec.DiffSpecs(ie.old, ie.new)
		diff = append(diff, msSince(start))
		start = time.Now()
		for _, s := range []*tspec.Spec{ie.old, ie.new} {
			g, err := s.TFM()
			if err != nil {
				return err
			}
			if _, err := g.Transactions(ie.gen.Enum); err != nil {
				return err
			}
		}
		trans = append(trans, msSince(start))
	}
	lay.set("driver.generate_ms", median(gen))
	lay.set("tspec.diff_ms", median(diff))
	lay.set("tfm.transactions_ms", median(trans))
	return nil
}

// op runs the edit once from the primed state and checks the partition,
// the report and the coverage artifact.
func (ie *impactEdit) op(ph *phase, lay *layers) error {
	mem, err := ie.primedStore()
	if err != nil {
		return err
	}
	r := ie.runner(mem)
	var col *obs.Tracer
	var gets0, puts0, hits0 int64
	if lay != nil {
		col = obs.NewCollector()
		if ie.timed == nil {
			ie.timed = newTimedStore(mem)
		}
		ie.timed.inner = mem
		ie.timed.restart(time.Now())
		gets0, puts0, hits0 = ie.timed.gets.Load(), ie.timed.puts.Load(), ie.timed.hits.Load()
		r.Store = ie.timed
		r.Exec.Trace, r.Exec.Metrics = col, obs.NewMetrics()
	}
	ph.attempted++
	start := time.Now()
	res, err := r.Run(ie.old, ie.new)
	wall := time.Since(start)
	if err != nil {
		fail(ph, "impact run: %v", err)
		return nil
	}
	ph.latMS = append(ph.latMS, float64(wall.Nanoseconds())/1e6)

	var problems []string
	rep := res.Report
	if rep.Kept != wantKept || rep.Rerun != wantRerun || rep.Regenerated != wantRegenerated {
		problems = append(problems, fmt.Sprintf("partition %d/%d/%d, want %d/%d/%d",
			rep.Kept, rep.Rerun, rep.Regenerated, wantKept, wantRerun, wantRegenerated))
	}
	if got, err := json.Marshal(res.Final); err != nil || !bytes.Equal(got, ie.coldReport) {
		problems = append(problems, "final report differs from a cold run of the new revision")
	}
	if got, err := res.Coverage.Encode(); err != nil || !bytes.Equal(got, ie.coldCoverage) {
		problems = append(problems, "coverage artifact differs from a cold run of the new revision")
	}
	counts := map[string]int64{
		"impact.kept":         int64(rep.Kept),
		"impact.rerun":        int64(rep.Rerun),
		"impact.regenerated":  int64(rep.Regenerated),
		"impact.cache_hits":   int64(rep.CacheHits),
		"impact.cache_misses": int64(rep.CacheMisses),
	}
	if lay != nil {
		counts["store.gets"] = ie.timed.gets.Load() - gets0
		counts["store.puts"] = ie.timed.puts.Load() - puts0
		counts["store.hits"] = ie.timed.hits.Load() - hits0
		spans := col.Spans()
		lay.fold(spans)
		busy := ie.timed.intervals()
		for _, sp := range spans {
			if sp.Kind == obs.KindSuite {
				busy = append(busy, [2]int64{sp.StartUS, sp.StartUS + sp.DurUS})
			}
		}
		ie.selfMS += float64(wall.Microseconds()-covered(busy)) / 1e3
	}
	if drift := checkLedger(ph, counts); drift != "" {
		problems = append(problems, drift)
	}
	if len(problems) > 0 {
		fail(ph, "impact-edit: %s", strings.Join(problems, "; "))
	}
	return nil
}

// recordingStore remembers the ID of every entry put through it.
type recordingStore struct {
	store.Backend
	mu  sync.Mutex
	ids []string
}

func (r *recordingStore) Put(k store.Key, value any) error {
	id, err := k.ID()
	if err != nil {
		return err
	}
	if err := r.Backend.Put(k, value); err != nil {
		return err
	}
	r.mu.Lock()
	r.ids = append(r.ids, id)
	r.mu.Unlock()
	return nil
}
