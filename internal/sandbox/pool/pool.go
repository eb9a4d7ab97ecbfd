package pool

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"concat/internal/sandbox"
)

// Worker-side errors surfaced by Recv. ErrRecvTimeout means the caller's
// deadline elapsed with the worker still silent — the worker must be
// killed (Discard) because its stream position is unknown.
var (
	ErrRecvTimeout = errors.New("pool: receive deadline elapsed")
	ErrClosed      = errors.New("pool: pool is closed")
)

// Config describes the worker processes a Pool spawns.
type Config struct {
	// Argv is the worker command line; Argv[0] is the executable. The
	// worker is expected to serve batch frames on stdin/stdout until EOF.
	Argv []string
	// Env entries are appended to the parent environment.
	Env []string
	// Size is the maximum number of concurrently live workers; <=0 means 1.
	Size int
	// MaxFrameBytes bounds one received frame; <=0 applies
	// DefaultMaxFrameBytes.
	MaxFrameBytes int64
	// MaxStderrBytes caps the retained head of a worker's stderr (the part
	// holding a fatal error line); <=0 applies an 8MB default.
	MaxStderrBytes int64
	// Retry is the policy for transient spawn failures; the zero value uses
	// sandbox.DefaultRetryPolicy.
	Retry sandbox.RetryPolicy
}

// Stats counts pool lifecycle events. Spawned includes restarts; Discarded
// counts workers killed after a crash, deadline, or dirty batch.
type Stats struct {
	Spawned   int64
	Discarded int64
}

// Pool is a bounded set of warm worker processes. Acquire hands out an
// idle worker (spawning lazily up to Size), Release returns a healthy one,
// Discard kills one whose stream or address space is no longer trusted.
// All methods are safe for concurrent use.
type Pool struct {
	cfg Config

	idle chan *Worker
	sem  chan struct{}

	mu     sync.Mutex
	closed bool
	live   map[*Worker]struct{}

	spawned   atomic.Int64
	discarded atomic.Int64
}

// New validates the config and returns an empty pool; workers spawn lazily
// on Acquire.
func New(cfg Config) (*Pool, error) {
	if len(cfg.Argv) == 0 {
		return nil, errors.New("pool: empty worker argv")
	}
	if cfg.Size <= 0 {
		cfg.Size = 1
	}
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if cfg.MaxStderrBytes <= 0 {
		cfg.MaxStderrBytes = 8 << 20
	}
	if cfg.Retry.Attempts == 0 {
		cfg.Retry = sandbox.DefaultRetryPolicy()
	}
	return &Pool{
		cfg:  cfg,
		idle: make(chan *Worker, cfg.Size),
		sem:  make(chan struct{}, cfg.Size),
		live: make(map[*Worker]struct{}),
	}, nil
}

// Acquire returns a warm worker, spawning one when no idle worker exists
// and the pool is under Size; otherwise it blocks until a worker is
// released or discarded. Spawn failures are retried under the transient
// policy before being reported.
func (p *Pool) Acquire() (*Worker, error) {
	select {
	case w := <-p.idle:
		return w, nil
	default:
	}
	select {
	case w := <-p.idle:
		return w, nil
	case p.sem <- struct{}{}:
		w, err := p.spawn()
		if err != nil {
			<-p.sem
			return nil, err
		}
		return w, nil
	}
}

// Release returns a healthy worker to the idle set for reuse.
func (p *Pool) Release(w *Worker) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		p.Discard(w)
		return
	}
	select {
	case p.idle <- w:
	default:
		// Shouldn't happen (idle capacity == sem capacity), but never block.
		p.Discard(w)
	}
}

// Discard kills the worker and frees its pool slot; the next Acquire may
// spawn a replacement. Safe on an already-dead worker.
func (p *Pool) Discard(w *Worker) {
	w.kill()
	p.mu.Lock()
	_, tracked := p.live[w]
	delete(p.live, w)
	p.mu.Unlock()
	if tracked {
		p.discarded.Add(1)
		<-p.sem
	}
}

// Close kills every worker, idle or not, and fails future Acquires.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	workers := make([]*Worker, 0, len(p.live))
	for w := range p.live {
		workers = append(workers, w)
	}
	p.live = make(map[*Worker]struct{})
	p.mu.Unlock()
	for _, w := range workers {
		w.kill()
		p.discarded.Add(1)
		<-p.sem
	}
	// Drain any idle references; their workers were already killed above.
	for {
		select {
		case <-p.idle:
		default:
			return
		}
	}
}

// Stats returns the lifecycle counters so far.
func (p *Pool) Stats() Stats {
	return Stats{Spawned: p.spawned.Load(), Discarded: p.discarded.Load()}
}

func (p *Pool) spawn() (*Worker, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	p.mu.Unlock()
	var w *Worker
	err := sandbox.Retry(p.cfg.Retry, func() error {
		var spawnErr error
		w, spawnErr = startWorker(p.cfg)
		return spawnErr
	})
	if err != nil {
		return nil, err
	}
	p.spawned.Add(1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		w.kill()
		return nil, ErrClosed
	}
	p.live[w] = struct{}{}
	p.mu.Unlock()
	return w, nil
}

// recvFrame is one reader-goroutine delivery: a payload or the stream
// error that ended the worker's output.
type recvFrame struct {
	payload []byte
	err     error
}

// Worker is one live case-server process plus its framed pipes. A Worker
// is owned by exactly one dispatcher between Acquire and Release/Discard;
// its methods are not safe for concurrent use by multiple dispatchers.
type Worker struct {
	cmd    *exec.Cmd
	stdin  *os.File
	stdout *os.File
	stderr *capBuffer

	frames  chan recvFrame
	readErr error

	killOnce sync.Once
	waitOnce sync.Once
	waitDone chan struct{}
}

func startWorker(cfg Config) (*Worker, error) {
	inR, inW, err := os.Pipe()
	if err != nil {
		return nil, fmt.Errorf("pool: stdin pipe: %w", err)
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		inR.Close()
		inW.Close()
		return nil, fmt.Errorf("pool: stdout pipe: %w", err)
	}
	cmd := exec.Command(cfg.Argv[0], cfg.Argv[1:]...)
	cmd.Stdin = inR
	cmd.Stdout = outW
	stderr := &capBuffer{max: cfg.MaxStderrBytes}
	cmd.Stderr = stderr
	cmd.Env = append(os.Environ(), cfg.Env...)
	// Its own process group, so killing a wedged worker reaches descendants
	// too. WaitDelay keeps an orphaned descendant holding the stderr pipe
	// from wedging Wait.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.WaitDelay = 2 * time.Second
	if err := cmd.Start(); err != nil {
		inR.Close()
		inW.Close()
		outR.Close()
		outW.Close()
		return nil, fmt.Errorf("pool: spawning %s: %w", cfg.Argv[0], err)
	}
	// Close the child's ends in the parent; the reader then sees EOF the
	// moment the worker (and its process group) is gone.
	inR.Close()
	outW.Close()

	w := &Worker{
		cmd:      cmd,
		stdin:    inW,
		stdout:   outR,
		stderr:   stderr,
		frames:   make(chan recvFrame, 4),
		waitDone: make(chan struct{}),
	}
	go w.readLoop(cfg.MaxFrameBytes)
	return w, nil
}

// readLoop pulls frames off the worker's stdout for Recv. It owns the
// stdout pipe: it exits (closing the channel) on the first read error,
// which for a dead worker is EOF.
func (w *Worker) readLoop(maxFrame int64) {
	br := bufio.NewReader(w.stdout)
	for {
		payload, err := ReadFrame(br, maxFrame)
		if err != nil {
			w.frames <- recvFrame{err: err}
			close(w.frames)
			w.stdout.Close()
			return
		}
		w.frames <- recvFrame{payload: payload}
	}
}

// Send writes one frame to the worker's stdin. A write error means the
// worker is gone; the caller should Recv (to classify) or Discard.
func (w *Worker) Send(payload []byte) error {
	return WriteFrame(w.stdin, payload)
}

// Recv returns the next frame from the worker, waiting up to timeout.
// ErrRecvTimeout means the worker is wedged past its deadline; any other
// error means its output stream ended (crash or clean exit) — classify
// with Fate.
func (w *Worker) Recv(timeout time.Duration) ([]byte, error) {
	if w.readErr != nil {
		return nil, w.readErr
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case f, ok := <-w.frames:
		if !ok {
			return nil, w.readErr
		}
		if f.err != nil {
			w.readErr = f.err
		}
		return f.payload, f.err
	case <-timer.C:
		return nil, ErrRecvTimeout
	}
}

// kill force-terminates the worker's process group and reaps it.
func (w *Worker) kill() {
	w.killOnce.Do(func() {
		if err := syscall.Kill(-w.cmd.Process.Pid, syscall.SIGKILL); err != nil {
			_ = w.cmd.Process.Kill()
		}
		w.stdin.Close()
	})
	w.wait()
}

// wait reaps the worker process exactly once.
func (w *Worker) wait() {
	w.waitOnce.Do(func() {
		go func() {
			_ = w.cmd.Wait()
			close(w.waitDone)
		}()
	})
	select {
	case <-w.waitDone:
	case <-time.After(5 * time.Second):
		// A wedged reap should never block the campaign; the process group
		// was SIGKILLed, the OS will finish the job.
	}
}

// Fate reaps a worker whose stream ended and classifies its death: the
// exit code plus a deterministic fatal summary (the runtime's "fatal
// error:"/"panic:" line from stderr, or the exit status). Call it only
// after Recv reported a stream error.
func (w *Worker) Fate() (exitCode int, summary string) {
	w.stdin.Close()
	w.wait()
	state := w.cmd.ProcessState
	if state == nil {
		return -1, "worker not reaped"
	}
	code := state.ExitCode()
	if code == 0 {
		return 0, ""
	}
	return code, sandbox.SummarizeFatal(state.String(), w.stderr.Bytes())
}

// capBuffer keeps the first max bytes written and drops the rest, always
// reporting full consumption so the worker never blocks on stderr.
type capBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int64
}

func (c *capBuffer) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if room := c.max - int64(len(c.buf)); room > 0 {
		if int64(len(p)) < room {
			room = int64(len(p))
		}
		c.buf = append(c.buf, p[:room]...)
	}
	return len(p), nil
}

func (c *capBuffer) Bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf...)
}
