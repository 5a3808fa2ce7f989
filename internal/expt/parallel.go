package expt

import (
	"runtime"
	"sync"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/simulate"
)

// parEach runs f(0..n-1) concurrently, bounded by the environment's
// configured parallelism (Options.Par, the CLI's -par): job-level fan-out
// and the replay engine's drive-level worker pool answer to the same knob,
// so -par 1 forces a fully sequential run.
func (e *Env) parEach(n int, f func(i int) error) error {
	return parEachN(e.par, n, f)
}

// buildAll runs independent layout builds concurrently under parEach and
// returns the error a sequential run of them, in order, would return.
// Builds are memoized single-flight in the strategy cache and read only
// immutable profiles, so they are safe to overlap.
func (e *Env) buildAll(builds ...func() error) error {
	return e.parEach(len(builds), func(i int) error { return builds[i]() })
}

// parEachN runs f(0..n-1) concurrently, bounded by the given worker count
// (non-positive selects GOMAXPROCS), and returns the error of the LOWEST
// failing index — the same error a sequential loop would return — so a
// failing run reports deterministically regardless of worker scheduling.
// Both halves of an experiment fan out through it: layout construction
// (pure: it reads immutable profiles, and the strategy cache is
// single-flight) and cache simulation (pure: each run builds its own cache
// and only reads the shared trace, layout and program).
func parEachN(workers, n int, f func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		first   error
		failIdx int = n
		next    int
	)
	// Tasks are handed out in index order and hand-out stops at the lowest
	// failing index seen so far, so every index below the globally lowest
	// failure is guaranteed to run: the recorded (failIdx, first) pair is
	// exactly what a sequential loop would have stopped on.
	grab := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || next >= failIdx {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(i int, err error) {
		mu.Lock()
		if i < failIdx {
			failIdx = i
			first = err
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := grab()
				if !ok {
					return
				}
				if err := f(i); err != nil {
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// cell is one single-configuration replay: workload i under the given
// kernel and application layouts (appL nil selects the workload's Base
// application layout, as in Eval) on one cache organisation. Layouts
// compare by pointer, so two cells are equal only when they name the very
// same layouts.
type cell struct {
	i         int
	osL, appL *layout.Layout
	cfg       cache.Config
}

// evalCells replays each distinct cell once through Eval, fanned out over
// parEach, and returns the results in cell order. Equal cells share one
// *Result, so callers must treat every result as read-only. The error is
// the one a sequential loop over the cells would stop on: distinct cells
// are replayed in first-occurrence order, so the lowest failing distinct
// cell is also the lowest failing cell.
func (e *Env) evalCells(cells []cell) ([]*simulate.Result, error) {
	slot := make([]int, len(cells))
	seen := make(map[cell]int, len(cells))
	var uniq []cell
	for k, c := range cells {
		j, ok := seen[c]
		if !ok {
			j = len(uniq)
			seen[c] = j
			uniq = append(uniq, c)
		}
		slot[k] = j
	}
	res := make([]*simulate.Result, len(uniq))
	if err := e.parEach(len(uniq), func(j int) error {
		c := uniq[j]
		r, err := e.Eval(c.i, c.osL, c.appL, c.cfg)
		res[j] = r
		return err
	}); err != nil {
		return nil, err
	}
	out := make([]*simulate.Result, len(cells))
	for k, j := range slot {
		out[k] = res[j]
	}
	return out, nil
}
