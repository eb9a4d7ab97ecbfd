package sandbox

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestBudgetSteps(t *testing.T) {
	b := NewBudget(3, 0)
	for i := 0; i < 3; i++ {
		if err := b.Step(); err != nil {
			t.Fatalf("step %d: unexpected error %v", i, err)
		}
	}
	err := b.Step()
	if err == nil {
		t.Fatal("fourth step should exhaust a 3-step budget")
	}
	if !IsExhausted(err) {
		t.Fatalf("exhaustion not classified: %v", err)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Resource != "step" || ex.Limit != 3 {
		t.Fatalf("wrong exhaustion detail: %+v", ex)
	}
}

func TestBudgetBytes(t *testing.T) {
	b := NewBudget(0, 10)
	if err := b.Charge(10); err != nil {
		t.Fatalf("charge within budget: %v", err)
	}
	if err := b.Charge(1); err == nil || !IsExhausted(err) {
		t.Fatalf("over-budget charge not exhausted: %v", err)
	}
	if b.BytesUsed() != 11 {
		t.Fatalf("BytesUsed = %d, want 11", b.BytesUsed())
	}
}

func TestBudgetNilAndUnlimited(t *testing.T) {
	var b *Budget
	if err := b.Step(); err != nil {
		t.Fatalf("nil budget must never exhaust: %v", err)
	}
	if err := b.Charge(1 << 40); err != nil {
		t.Fatalf("nil budget must never exhaust: %v", err)
	}
	u := NewBudget(0, 0)
	for i := 0; i < 10_000; i++ {
		if err := u.Step(); err != nil {
			t.Fatalf("unlimited budget exhausted at %d: %v", i, err)
		}
	}
}

func TestBudgetConcurrentExhaustion(t *testing.T) {
	// Exactly limit steps succeed no matter how the charges interleave.
	const limit, workers, per = 100, 8, 50
	b := NewBudget(limit, 0)
	var ok, failed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				err := b.Step()
				mu.Lock()
				if err == nil {
					ok++
				} else {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if ok != limit || failed != workers*per-limit {
		t.Fatalf("ok=%d failed=%d, want %d/%d", ok, failed, limit, workers*per-limit)
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	l.Abandon()
	l.Abandon()
	if l.Abandoned() != 2 || l.Outstanding() != 2 {
		t.Fatalf("abandoned=%d outstanding=%d, want 2/2", l.Abandoned(), l.Outstanding())
	}
	l.Settle()
	if l.Outstanding() != 1 || l.Settled() != 1 {
		t.Fatalf("outstanding=%d settled=%d, want 1/1", l.Outstanding(), l.Settled())
	}
	var nl *Ledger
	nl.Abandon() // must not panic
	nl.Settle()
	if nl.Outstanding() != 0 {
		t.Fatal("nil ledger should read zero")
	}
}

func TestRetryTransient(t *testing.T) {
	calls := 0
	err := Retry(RetryPolicy{Attempts: 3, BaseDelay: time.Microsecond}, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("spawn: %w", syscall.EAGAIN)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil/3", err, calls)
	}
}

func TestRetryDeterministicFailureNotRetried(t *testing.T) {
	calls := 0
	permanent := errors.New("component is broken")
	err := Retry(RetryPolicy{Attempts: 5, BaseDelay: time.Microsecond}, func() error {
		calls++
		return permanent
	})
	if !errors.Is(err, permanent) || calls != 1 {
		t.Fatalf("err=%v calls=%d: deterministic errors must not be retried", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	err := Retry(RetryPolicy{Attempts: 3, BaseDelay: time.Microsecond}, func() error {
		calls++
		return syscall.ETXTBSY
	})
	if err == nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want error after 3 attempts", err, calls)
	}
	if !errors.Is(err, syscall.ETXTBSY) {
		t.Fatalf("final error lost its cause: %v", err)
	}
}

func TestSummarizeFatal(t *testing.T) {
	stderr := []byte("runtime: goroutine stack exceeds 67108864-byte limit\nfatal error: stack overflow\n\ngoroutine 1 [running]:\nmain.f(0xc000...)\n")
	got := SummarizeFatal("exit status 2", stderr)
	want := "fatal error: stack overflow (exit status 2)"
	if got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
	if got := SummarizeFatal("exit status 66", nil); got != "exit status 66" {
		t.Fatalf("plain exit summary = %q", got)
	}
}
