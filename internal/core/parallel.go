package core

import (
	"context"
	"sync"
)

// Ordered parallel evaluation. Per-object work (object-based forward
// passes, Monte-Carlo sampling) is embarrassingly parallel: chains are
// immutable after construction, so workers share them freely. The
// query-based strategy needs no such treatment — its per-object work is
// already a dot product.
//
// parallelOrdered delivers results in input order through a bounded
// reorder pipeline, so streaming consumers see the same sequence as the
// serial path while memory stays O(workers) regardless of input size.
// The first failure — the one at the lowest input index, which makes
// the returned error deterministic regardless of goroutine scheduling —
// cancels all remaining work. It is generic over the work-item result
// type: the per-object streams instantiate it with Result, the batch
// entry points (batch.go) with whole Responses.
func parallelOrdered[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, idx int) (T, error)) func(yield func(T, error) bool) {
	var zero T
	return func(yield func(T, error) bool) {
		if n == 0 {
			return
		}
		if workers > n {
			workers = n
		}
		ctx, cancel := context.WithCancel(ctx)

		type slot struct {
			r   T
			err error
		}
		type job struct {
			idx int
			out chan slot
		}
		// order carries each job's result channel in submission order;
		// its capacity bounds how far workers may run ahead of the
		// consumer.
		order := make(chan chan slot, 2*workers)
		jobs := make(chan job)

		go func() { // feeder
			defer close(jobs)
			defer close(order)
			for i := 0; i < n; i++ {
				out := make(chan slot, 1)
				select {
				case order <- out:
				case <-ctx.Done():
					return
				}
				select {
				case jobs <- job{idx: i, out: out}:
				case <-ctx.Done():
					return
				}
			}
		}()

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					r, err := fn(ctx, j.idx)
					j.out <- slot{r: r, err: err} // buffered: never blocks
				}
			}()
		}
		// Cancel BEFORE waiting: on an early return (consumer break or
		// error) the feeder is blocked sending into the full pipeline
		// and only the cancellation releases it — waiting first would
		// deadlock.
		defer func() {
			cancel()
			wg.Wait()
		}()

		for out := range order {
			var s slot
			select {
			case s = <-out:
			case <-ctx.Done():
				yield(zero, ctx.Err())
				return
			}
			if s.err != nil {
				yield(zero, s.err)
				return
			}
			if !yield(s.r, nil) {
				return
			}
		}
		// The feeder closes order early when ctx is cancelled; if every
		// in-flight item still completed cleanly the loop above ends
		// without an error slot. A cancelled scan must never look like a
		// complete one — surface ctx.Err() explicitly.
		if err := ctx.Err(); err != nil {
			yield(zero, err)
		}
	}
}
