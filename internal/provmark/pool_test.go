package provmark_test

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"provmark/internal/provmark"
)

// TestPoolBoundsInFlight: no more than the pool's width of calls run
// at once; widths < 1 default to GOMAXPROCS.
func TestPoolBoundsInFlight(t *testing.T) {
	const n, width = 50, 3
	var inFlight, peak atomic.Int32
	provmark.NewPool(width).Each(context.Background(), n, func(int) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
	})
	if got := peak.Load(); got > width {
		t.Fatalf("peak in-flight = %d, want <= %d", got, width)
	}
	if got, want := provmark.NewPool(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default width = %d, want GOMAXPROCS = %d", got, want)
	}
}

// TestPoolClaimsEachIndexOnceInOrder: every index runs exactly once,
// and with one slot the calls follow claim order.
func TestPoolClaimsEachIndexOnceInOrder(t *testing.T) {
	const n = 50
	var mu sync.Mutex
	var order []int
	provmark.NewPool(1).Each(context.Background(), n, func(i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("call %d ran index %d; order %v", i, got, order)
		}
	}
	if len(order) != n {
		t.Fatalf("%d calls, want %d", len(order), n)
	}

	counts := make([]atomic.Int32, n)
	provmark.NewPool(4).Each(context.Background(), n, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Errorf("index %d ran %d times, want 1", i, got)
		}
	}
}

// TestPoolCancelledBeforeEachCallsNothing: a context already done
// claims no index, even with every slot free.
func TestPoolCancelledBeforeEachCallsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	provmark.NewPool(4).Each(ctx, 50, func(int) { calls.Add(1) })
	if got := calls.Load(); got != 0 {
		t.Fatalf("%d calls after cancellation, want 0", got)
	}
}

// TestPoolEachWaitsForClaimedCalls: Each does not return while a
// claimed call is still blocked — not even once its context is done —
// and returns once the call does.
func TestPoolEachWaitsForClaimedCalls(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	entered := make(chan struct{})
	release := make(chan struct{})
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		provmark.NewPool(2).Each(ctx, 5, func(i int) {
			if i == 0 {
				close(entered)
				<-release
			}
		})
	}()
	<-entered
	cancel()
	select {
	case <-returned:
		t.Fatal("Each returned while a claimed call was blocked")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("Each did not return after the blocked call finished")
	}
}
