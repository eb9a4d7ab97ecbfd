package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"concat/internal/obs"
	"concat/internal/store"
)

// perLayer is every per-layer metric a traced run reports, per op of its
// workload; a layer the workload does not reach reports 0. README.md gives
// each metric's definition and the end-to-end metric it should move.
var perLayer = []struct{ name, unit string }{
	{"analysis.mutants", "count"},
	{"analysis.case_runs", "count"},
	{"analysis.useful_case_ratio", "ratio"},
	{"analysis.mutant_self_ms", "ms"},
	{"analysis.reference_ms", "ms"},
	{"testexec.cases", "count"},
	{"testexec.case_self_us", "us"},
	{"testexec.suite_self_ms", "ms"},
	{"component.calls", "count"},
	{"component.call_us", "us"},
	{"bit.reporter_us", "us"},
	{"isolation.dispatch_us", "us"},
	{"isolation.batches", "count"},
	{"isolation.recycles", "count"},
	{"isolation.redispatches", "count"},
	{"driver.generate_ms", "ms"},
	{"history.derive_ms", "ms"},
	{"tfm.transactions_ms", "ms"},
	{"tspec.diff_ms", "ms"},
	{"impact.self_ms", "ms"},
	{"impact.kept", "count"},
	{"impact.rerun", "count"},
	{"impact.regenerated", "count"},
	{"store.gets", "count"},
	{"store.puts", "count"},
	{"store.hit_ratio", "ratio"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"serve.submit_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.nonexec_ms", "ms"},
	{"serve.trace_bytes", "bytes"},
	{"serve.rejected", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"obs.trace_overhead_ratio", "ratio"},
}

// layers accumulates one traced phase: spans folded by kind, the program's
// counters, and the benchmark's own timings of calls into public functions.
// Only the goroutine that runs the phase touches it.
type layers struct {
	kinds map[string]*kindStat
	vals  map[string]float64
}

// kindStat is the fold of every span of one kind. Span durations are
// truncated to whole microseconds, so sums over short spans (calls) are
// lower bounds.
type kindStat struct {
	n      int64
	durUS  int64
	selfUS int64 // duration minus the time covered by direct children
}

func newLayers() *layers {
	return &layers{kinds: map[string]*kindStat{}, vals: map[string]float64{}}
}

func (l *layers) set(name string, v float64) { l.vals[name] = v }

// kind returns the fold of one span kind; the reporter call is folded on
// its own as "call:reporter" besides counting as a call.
func (l *layers) kind(k string) kindStat {
	if s := l.kinds[k]; s != nil {
		return *s
	}
	return kindStat{}
}

// fold adds a set of spans: each span's self time is its duration minus
// the union of its direct children's intervals, so children that ran
// concurrently are not subtracted twice.
func (l *layers) fold(spans []obs.Span) {
	children := map[obs.SpanID][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	add := func(k string, s obs.Span, self int64) {
		st := l.kinds[k]
		if st == nil {
			st = &kindStat{}
			l.kinds[k] = st
		}
		st.n++
		st.durUS += s.DurUS
		st.selfUS += self
	}
	for _, s := range spans {
		self := s.DurUS - covered(children[s.ID])
		if self < 0 {
			self = 0 // truncation can make children sum past the parent
		}
		add(s.Kind, s, self)
		if s.Kind == obs.KindCall && s.Name == "reporter" {
			add("call:reporter", s, self)
		}
	}
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// setSpanLayers publishes the span-derived metrics shared by every
// workload that executes suites, divided by the phase's op count.
func (l *layers) setSpanLayers(ops int) {
	per := func(v int64) float64 { return float64(v) / float64(ops) }
	mutant, ref := l.kind(obs.KindMutant), l.kind(obs.KindReference)
	cases, suites := l.kind(obs.KindCase), l.kind(obs.KindSuite)
	calls, rep, spawn := l.kind(obs.KindCall), l.kind("call:reporter"), l.kind(obs.KindSpawn)
	l.set("analysis.mutant_self_ms", per(mutant.selfUS)/1e3)
	l.set("analysis.reference_ms", per(ref.durUS)/1e3)
	l.set("testexec.cases", per(cases.n))
	if cases.n > 0 {
		l.set("testexec.case_self_us", float64(cases.selfUS)/float64(cases.n))
	}
	l.set("testexec.suite_self_ms", per(suites.selfUS)/1e3)
	l.set("component.calls", per(calls.n))
	l.set("component.call_us", per(calls.durUS))
	l.set("bit.reporter_us", per(rep.durUS))
	l.set("isolation.dispatch_us", per(spawn.durUS))
}

// setPoolCounters publishes the warm pool's counters from the program's
// obs.Metrics snapshot.
func (l *layers) setPoolCounters(met *obs.Metrics, ops int) {
	c := met.Snapshot().Counters
	l.set("isolation.batches", float64(c["pool.batches"])/float64(ops))
	l.set("isolation.recycles", float64(c["pool.recycles"])/float64(ops))
	l.set("isolation.redispatches", float64(c["pool.redispatches"])/float64(ops))
}

// timedStore is a store.Backend decorator that counts and times every call
// into the backend it wraps, and remembers when each call ran.
type timedStore struct {
	inner            store.Backend
	gets, puts, hits atomic.Int64
	getNS, putNS     atomic.Int64
	mu               sync.Mutex
	epoch            time.Time
	calls            [][2]int64 // call intervals in µs since epoch
}

func newTimedStore(inner store.Backend) *timedStore {
	return &timedStore{inner: inner, epoch: time.Now()}
}

func (t *timedStore) record(start time.Time, ns *atomic.Int64) {
	d := time.Since(start)
	ns.Add(int64(d))
	from := start.Sub(t.epoch).Microseconds()
	t.mu.Lock()
	t.calls = append(t.calls, [2]int64{from, from + d.Microseconds()})
	t.mu.Unlock()
}

func (t *timedStore) Get(k store.Key, out any) (bool, error) {
	start := time.Now()
	hit, err := t.inner.Get(k, out)
	t.record(start, &t.getNS)
	t.gets.Add(1)
	if hit {
		t.hits.Add(1)
	}
	return hit, err
}

func (t *timedStore) Put(k store.Key, value any) error {
	start := time.Now()
	err := t.inner.Put(k, value)
	t.record(start, &t.putNS)
	t.puts.Add(1)
	return err
}

func (t *timedStore) Len() (int, int, error) { return t.inner.Len() }
func (t *timedStore) Stats() store.Stats     { return t.inner.Stats() }

// zero resets the counters and forgets the recorded call intervals.
func (t *timedStore) zero() {
	t.gets.Store(0)
	t.puts.Store(0)
	t.hits.Store(0)
	t.getNS.Store(0)
	t.putNS.Store(0)
	t.restart(time.Now())
}

// restart forgets the recorded call intervals and measures later ones
// from epoch; the counters keep running.
func (t *timedStore) restart(epoch time.Time) {
	t.mu.Lock()
	t.epoch, t.calls = epoch, nil
	t.mu.Unlock()
}

// intervals returns the calls recorded since the last restart.
func (t *timedStore) intervals() [][2]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([][2]int64(nil), t.calls...)
}

// setStoreLayers publishes the store decorator's totals per op.
func (l *layers) setStoreLayers(t *timedStore, ops int) {
	gets, puts := t.gets.Load(), t.puts.Load()
	l.set("store.gets", float64(gets)/float64(ops))
	l.set("store.puts", float64(puts)/float64(ops))
	if gets > 0 {
		l.set("store.hit_ratio", float64(t.hits.Load())/float64(gets))
		l.set("store.get_us", float64(t.getNS.Load())/1e3/float64(gets))
	}
	if puts > 0 {
		l.set("store.put_us", float64(t.putNS.Load())/1e3/float64(puts))
	}
}
