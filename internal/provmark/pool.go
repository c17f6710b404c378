package provmark

import (
	"context"
	"runtime"
	"sync"
)

// Pool is the bounded executor behind every fan-out in a ProvMark run:
// matrix cells, recording trials and provmarkd's job cells. It is a
// semaphore of slots; callers that share one Pool share its bound.
type Pool struct {
	slots chan struct{}
}

// NewPool returns a pool running at most workers calls at once; values
// < 1 use GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{slots: make(chan struct{}, workers)}
}

// Workers reports the pool's bound.
func (p *Pool) Workers() int { return cap(p.slots) }

// Each claims the indices 0..n-1 in order and runs fn on each claimed
// index in its own goroutine once a slot is free. It stops claiming
// when ctx is done, and returns only after every claimed fn has
// returned; fn observes cancellation through its own context.
func (p *Pool) Each(ctx context.Context, n int, fn func(i int)) {
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < n; i++ {
		select {
		case p.slots <- struct{}{}:
		case <-ctx.Done():
			return
		}
		// A free slot and a done ctx can both be ready; cancellation wins.
		if ctx.Err() != nil {
			<-p.slots
			return
		}
		wg.Add(1)
		go func() {
			defer func() {
				<-p.slots
				wg.Done()
			}()
			fn(i)
		}()
	}
}
