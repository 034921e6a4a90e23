// Package detpool is the deterministic job pool behind the campaign,
// fleet and red-team drivers. Jobs are independent and indexed; a
// bounded set of workers pulls indices from a channel, and results are
// merged in index order, which is why a driver's report does not depend
// on its worker count. SubSeed derives each job's independent random
// stream from the driver's master seed.
package detpool

import "sync"

// Map runs fn(0) … fn(n-1) on up to workers goroutines (clamped to
// [1, n]) and returns the results in index order.
func Map[R any](n, workers int, fn func(i int) R) []R {
	out := make([]R, n)
	workers = min(max(workers, 1), n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// SubSeed is the splitmix64 finalizer over (seed, i): job i's seed,
// independent of every other job's.
func SubSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
