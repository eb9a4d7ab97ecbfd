package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"concat/internal/core"
	"concat/internal/cover"
	"concat/internal/driver"
	"concat/internal/obs"
	"concat/internal/serve"
	"concat/internal/store"
	"concat/internal/tfm"
)

const whyService = "a closed loop of nproc clients against the campaign service over loopback, half warm repeats read from the store and half fresh seeds run cold"

// serviceComponents are the campaign targets; serviceWarmSeeds is how many
// seeds per component the warm pool primes in set-up.
var serviceComponents = []string{"Account", "OrderSystem"}

const serviceWarmSeeds = 2

// service runs an in-process campaign service the way
// `concat serve -cache-dir -journal` does: an fs store and a journal in a
// temporary directory, default workers and queue depth, on a loopback
// listener.
type service struct {
	dir     string
	timed   *timedStore // wraps the store on traced runs
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve returns
	base    string
	client  *http.Client
	clients int
	// warm is the primed (component, seed) pool with each pair's report.
	warm []campaignKey
	want map[campaignKey][]byte
	// rng draws the fresh seeds of cold campaigns; used rules out repeats.
	mu   sync.Mutex
	rng  *rand.Rand
	used map[int64]bool
}

type campaignKey struct {
	Component string `json:"component"`
	Seed      int64  `json:"seed"`
}

func setupService(seed int64, traced bool) (instance, error) {
	dir, err := os.MkdirTemp("", "perfbench-service-")
	if err != nil {
		return nil, err
	}
	s := &service{
		dir:     dir,
		clients: runtime.NumCPU(),
		rng:     rand.New(rand.NewSource(seed)),
		used:    map[int64]bool{},
		want:    map[campaignKey][]byte{},
	}
	if err := s.start(traced); err != nil {
		s.close()
		return nil, err
	}
	for _, comp := range serviceComponents {
		for i := 0; i < serviceWarmSeeds; i++ {
			s.warm = append(s.warm, campaignKey{comp, s.freshSeed()})
		}
	}
	for _, k := range s.warm {
		c := s.campaign(k, false)
		if c.err != nil {
			s.close()
			return nil, fmt.Errorf("priming %v: %w", k, c.err)
		}
		s.want[k] = c.report
	}
	return s, nil
}

func (s *service) start(traced bool) error {
	st, err := store.Open(filepath.Join(s.dir, "store"))
	if err != nil {
		return err
	}
	jn, err := serve.OpenJournal(filepath.Join(s.dir, "journal"))
	if err != nil {
		return err
	}
	var backend store.Backend = st
	if traced {
		s.timed = newTimedStore(st)
		backend = s.timed
	}
	s.srv = serve.New(serve.Config{Store: backend, Journal: jn})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     s.clients,
		MaxIdleConnsPerHost: s.clients,
	}}
	return nil
}

func (s *service) close() {
	if s.hs != nil {
		_ = s.hs.Close()
		<-s.served
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	_ = os.RemoveAll(s.dir)
}

// freshSeed draws a seed no campaign of this instance has used.
func (s *service) freshSeed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		v := s.rng.Int63n(1<<31) + 1
		if !s.used[v] {
			s.used[v] = true
			return v
		}
	}
}

// campaignRun is one client request's outcome.
type campaignRun struct {
	key             campaignKey
	latMS, submitMS float64
	report          []byte
	rejected        bool
	err             error
	execMS          float64 // root campaign span, traced runs only
	traceBytes      int
	spans           []obs.Span
}

// campaign submits one campaign and blocks on its report; traced, it also
// reads the campaign's span stream.
func (s *service) campaign(k campaignKey, traced bool) campaignRun {
	c := campaignRun{key: k}
	body, _ := json.Marshal(k)
	start := time.Now()
	resp, err := s.client.Post(s.base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		c.err = err
		return c
	}
	var st serve.Status
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	c.submitMS = msSince(start)
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		c.rejected = true
		c.err = errors.New("submission refused with 503")
		return c
	case resp.StatusCode != http.StatusAccepted || derr != nil:
		c.err = fmt.Errorf("submission answered %s (%v)", resp.Status, derr)
		return c
	}
	if c.report, c.err = s.get("/campaigns/" + st.ID + "/report"); c.err != nil {
		return c
	}
	c.latMS = msSince(start)
	if traced {
		events, err := s.get("/campaigns/" + st.ID + "/events")
		if err != nil {
			c.err = err
			return c
		}
		c.traceBytes = len(events)
		sc := bufio.NewScanner(bytes.NewReader(events))
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			var sp obs.Span
			if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
				continue // the stream may carry a truncation marker line
			}
			c.spans = append(c.spans, sp)
			if sp.Kind == obs.KindCampaign && sp.Parent == 0 {
				c.execMS = float64(sp.DurUS) / 1e3
			}
		}
	}
	return c
}

func (s *service) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s answered %s: %s", path, resp.Status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// serviceWarmup is how long the closed loop runs before timing starts: the
// first seconds of a fresh server run markedly slower than the rest.
const serviceWarmup = 3 * time.Second

// warmup runs the closed loop for serviceWarmup before anything is timed.
func (s *service) warmup() error {
	ph, err := s.loop(time.Now().Add(serviceWarmup), nil)
	if err != nil {
		return err
	}
	ph.check()
	if ph.failed > 0 {
		return fmt.Errorf("%d warm-up campaigns failed", ph.failed)
	}
	return nil
}

func (s *service) measure(deadline time.Time, lay *layers) (*phase, error) {
	if lay != nil {
		s.timed.zero()
	}
	return s.loop(deadline, lay)
}

// loop runs the clients until the deadline. A round is four campaigns back
// to back, a warm and a cold one per component, in an order rotated by
// client and round. Its latency, the sum of the four, is the workload's
// timed unit: single campaign latencies are bimodal (warm ones are a few
// times faster than cold ones), so their median would sit on the gap
// between the modes.
func (s *service) loop(deadline time.Time, lay *layers) (*phase, error) {
	runs := make([][]campaignRun, s.clients)
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		s.mu.Lock()
		rng := rand.New(rand.NewSource(s.rng.Int63()))
		s.mu.Unlock()
		wg.Add(1)
		go func(c int, rng *rand.Rand) {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				for i := 0; i < 4; i++ {
					slot := (i + j + c) % 4
					k := s.warm[slot/2*serviceWarmSeeds+rng.Intn(serviceWarmSeeds)]
					if slot%2 == 1 {
						k = campaignKey{serviceComponents[slot/2], s.freshSeed()}
					}
					runs[c] = append(runs[c], s.campaign(k, lay != nil))
				}
			}
		}(c, rng)
	}
	wg.Wait()

	ph := &phase{}
	var cold []campaignRun
	var campaigns, warmLat, coldLat, submit, exec, nonexec []float64
	var traceBytes, rejected int
	for _, cr := range runs {
		for r := 0; r < len(cr); r += 4 {
			round, ok := 0.0, true
			for _, c := range cr[r : r+4] {
				ph.attempted++
				if c.rejected {
					rejected++
				}
				if c.err != nil {
					fail(ph, "campaign %v: %v", c.key, c.err)
					ok = false
					continue
				}
				round += c.latMS
				campaigns = append(campaigns, c.latMS)
				if want, warm := s.want[c.key]; warm {
					warmLat = append(warmLat, c.latMS)
					if !bytes.Equal(c.report, want) {
						fail(ph, "warm campaign %v: report differs from its primed report", c.key)
					}
				} else {
					coldLat = append(coldLat, c.latMS)
					cold = append(cold, c)
				}
				if lay != nil {
					submit = append(submit, c.submitMS)
					exec = append(exec, c.execMS)
					nonexec = append(nonexec, c.latMS-c.submitMS-c.execMS)
					traceBytes += c.traceBytes
					lay.fold(c.spans)
				}
			}
			if ok {
				ph.latMS = append(ph.latMS, round)
			}
		}
	}
	n := len(campaigns)
	ph.ops = n
	if n == 0 {
		return ph, nil
	}
	tail, label := tailOf(campaigns)
	ph.add("campaign_p50_ms", "ms", median(campaigns), fmt.Sprintf("%d campaigns, %d warm", n, len(warmLat)))
	ph.add("campaign_tail_ms", "ms", tail, label)
	ph.add("campaign_warm_p50_ms", "ms", median(warmLat), "")
	ph.add("campaign_cold_p50_ms", "ms", median(coldLat), "")
	if lay != nil {
		mean := func(xs []float64) float64 {
			var t float64
			for _, x := range xs {
				t += x
			}
			return t / float64(len(xs))
		}
		lay.setSpanLayers(n)
		lay.setStoreLayers(s.timed, n)
		lay.set("analysis.mutants", float64(lay.kind(obs.KindMutant).n)/float64(n))
		lay.set("serve.submit_ms", mean(submit))
		lay.set("serve.exec_ms", mean(exec))
		lay.set("serve.nonexec_ms", mean(nonexec))
		lay.set("serve.trace_bytes", float64(traceBytes)/float64(n))
		lay.set("serve.rejected", float64(rejected))
	}
	// Cold reports are checked against direct runs after the clock stops:
	// how many fresh seeds a run uses depends on its speed.
	ph.check = func() { s.checkCold(ph, cold) }
	return ph, nil
}

// checkCold recomputes every cold campaign directly, the way the service's
// local path does, and compares the rendered report byte for byte.
func (s *service) checkCold(ph *phase, cold []campaignRun) {
	jobs := make(chan campaignRun)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < s.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				want, err := directReport(c.key)
				mu.Lock()
				switch {
				case err != nil:
					fail(ph, "direct run of %v: %v", c.key, err)
				case !bytes.Equal(c.report, want):
					fail(ph, "cold campaign %v: report differs from a direct run", c.key)
				}
				mu.Unlock()
			}
		}()
	}
	for _, c := range cold {
		jobs <- c
	}
	close(jobs)
	wg.Wait()
}

// directReport runs the campaign with core.MutationRunOpts, no store, and
// renders it as the service does: the table, then the coverage summary.
func directReport(k campaignKey) ([]byte, error) {
	t, err := core.LookupTarget(k.Component)
	if err != nil {
		return nil, err
	}
	suite, err := t.New(nil).GenerateSuite(driver.Options{
		Seed: k.Seed, MaxAlternatives: 4, Enum: tfm.EnumOptions{LoopBound: 1},
	})
	if err != nil {
		return nil, err
	}
	res, err := core.MutationRunOpts(k.Component, suite, nil, nil, core.MutationOptions{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	g, err := t.New(nil).Spec().TFM()
	if err != nil {
		return nil, err
	}
	art, err := cover.FromCampaign(g, suite, res)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := res.Tabulate().Render(&b); err != nil {
		return nil, err
	}
	b.WriteString(art.Suite.Summary())
	b.WriteString("\n")
	return b.Bytes(), nil
}
