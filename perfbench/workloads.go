package main

import (
	"fmt"
	"runtime"
	"time"

	"oslayout"
	"oslayout/internal/expt"
	"oslayout/internal/obs"
	"oslayout/internal/strategy"
)

// defaultSeed is the kernel seed of the paper reproduction; heldOutSeed is
// the second seed digests.json records, one no tuning used.
const (
	defaultSeed = 1995
	heldOutSeed = 7
)

// Workload sizes, with the CLI's binary suffixes: suiteRefs is
// `oslayout -refs 1m`. Each repetition runs one study of this size in a
// fresh process; README.md gives the reasons for each choice.
const (
	suiteRefs  = 1 << 20
	gridRefs   = 3 << 20
	gridWarm   = 10
	streamRefs = 30 << 20
	serveRefs  = 1 << 20
	servePairs = 10
	gridLine   = 32
)

// gridSizes are the cache sizes of every compare grid the benchmark runs.
var gridSizes = []int{4 << 10, 8 << 10, 16 << 10}

// streamStrategies and serveStrategies are the strategy sets of the
// streamed compare and of the serve compare job.
var (
	streamStrategies = []string{"base", "opts"}
	serveStrategies  = []string{"base", "ch", "ph", "opts"}
)

// repFunc runs one repetition of a workload in the calling process.
type repFunc func(seed int64, traced bool) (*repResult, error)

var workloads = map[string]repFunc{
	"suite":  suiteRep,
	"grid":   gridRep,
	"stream": streamRep,
	"serve":  serveRep,
}

// par is the parallelism every workload runs at: one process, at most
// nproc threads of work.
func par() int { return runtime.NumCPU() }

// newRecorder returns a recorder for traced repetitions and nil otherwise
// (a nil recorder records nothing at no cost).
func newRecorder(traced bool) *obs.Recorder {
	if traced {
		return obs.NewRecorder()
	}
	return nil
}

// suiteRep renders every registered experiment on a fresh 1M-ref study: the
// paper reproduction users run (`oslayout -refs 1m all`).
func suiteRep(seed int64, traced bool) (*repResult, error) {
	r := newRep()
	rec := newRecorder(traced)
	t0 := time.Now()
	env, err := expt.NewEnv(expt.Options{OSRefs: suiteRefs, KernelSeed: seed, Par: par(), Recorder: rec})
	r.Setup = since(t0)
	if err != nil {
		return nil, fmt.Errorf("building study: %w", err)
	}
	start := time.Now()
	var render float64
	runS := map[string]float64{}
	for _, name := range expt.Names() {
		r.Attempted++
		t := time.Now()
		out, err := expt.Run(env, name)
		ran := time.Now()
		if err != nil {
			r.fail(name, err)
			continue
		}
		text := out.Render()
		render += since(ran)
		runS[name] = ran.Sub(t).Seconds()
		r.Parts[name] = since(t)
		r.Digests[name] = obs.Digest(text)
	}
	r.Run = since(start)
	// The suite's operation is the whole suite: the experiment at the median
	// of the per-experiment latencies changes with the kernel seed.
	r.Ops = append(r.Ops, r.Run)
	if traced {
		for name, v := range runS {
			r.layer("expt.run_s."+name, v)
		}
		r.layer("expt.render_s", render)
		envLayers(r, env, rec)
		probeLayers(r, env.St, seed, serveStrategies)
	}
	return r, nil
}

// compareGrid runs and renders one compare grid, returning the grid, its
// digest and the time both took.
func compareGrid(env *expt.Env, strategies []string, assoc int) (*expt.Compare, string, float64, error) {
	t := time.Now()
	c, err := env.RunCompareOpts(strategies, gridSizes, gridLine, assoc, expt.CompareOptions{})
	if err != nil {
		return nil, "", 0, err
	}
	d := obs.Digest(c.Render())
	return c, d, since(t), nil
}

// gridRep runs the 8-strategy x 3-size x 4-workload compare grid at 3M refs:
// a cold direct-mapped pass, warm repeats of it on the same environment,
// and one 4-way pass.
func gridRep(seed int64, traced bool) (*repResult, error) {
	r := newRep()
	rec := newRecorder(traced)
	t0 := time.Now()
	env, err := expt.NewEnv(expt.Options{OSRefs: gridRefs, KernelSeed: seed, Par: par(), Recorder: rec})
	r.Setup = since(t0)
	if err != nil {
		return nil, fmt.Errorf("building study: %w", err)
	}
	strategies := strategy.Names()

	r.Attempted++
	cold, coldDigest, coldS, err := compareGrid(env, strategies, 1)
	if err != nil {
		r.fail("grid.dm", err)
		return r, nil
	}
	r.Digests["grid.dm"] = coldDigest
	r.Parts["cold"] = coldS
	hits, misses := env.StreamCacheStats()
	warm := repeatCheck{
		perGrid: hits + misses,
		cold:    cold,
		digest:  coldDigest,
		stats:   env.StreamCacheStats,
		run: func() (*expt.Compare, string, error) {
			c, d, _, err := compareGrid(env, strategies, 1)
			return c, d, err
		},
	}
	warm.repeat(gridWarm, r)

	r.Attempted++
	_, assocDigest, assocS, err := compareGrid(env, strategies, 4)
	if err != nil {
		r.fail("grid.4way", err)
	} else {
		r.Digests["grid.4way"] = assocDigest
		r.Parts["4way"] = assocS
	}
	r.Run = coldS + assocS
	if traced {
		t := time.Now()
		cold.Render()
		r.layer("expt.render_s", since(t))
		envLayers(r, env, rec)
		probeLayers(r, env.St, seed, strategies)
	}
	return r, nil
}

// repeatCheck re-runs a grid that has already run once on the same
// environment and checks that every repeat recomputed it: a repeat must
// return a fresh grid, request exactly the cold pass's number of compiled
// streams from the stream cache (all of them hits: the replay ran, the
// compile did not) and render identically.
type repeatCheck struct {
	perGrid uint64
	cold    *expt.Compare
	digest  string
	stats   func() (hits, misses uint64)
	run     func() (*expt.Compare, string, error)
}

// repeat runs n checked repeats, appending the latency of each good one to
// r.Ops and recording every bad one as a failed operation.
func (w *repeatCheck) repeat(n int, r *repResult) {
	seen := map[*expt.Compare]bool{w.cold: true}
	for i := 0; i < n; i++ {
		r.Attempted++
		op := fmt.Sprintf("grid.warm[%d]", i)
		hb, mb := w.stats()
		t := time.Now()
		c, d, err := w.run()
		dur := since(t)
		ha, ma := w.stats()
		switch {
		case err != nil:
			r.fail(op, err)
		case seen[c]:
			r.fail(op, fmt.Errorf("returned a grid computed earlier (memoized repetition)"))
		case ha-hb != w.perGrid || ma != mb:
			r.fail(op, fmt.Errorf("made %d stream-cache hits and %d misses, want %d and 0: the grid was not replayed", ha-hb, ma-mb, w.perGrid))
		case d != w.digest:
			r.fail(op, fmt.Errorf("digest %.12s differs from the cold pass's %.12s", d, w.digest))
		default:
			r.Ops = append(r.Ops, dur)
		}
		seen[c] = true
	}
}

// streamRep runs a streamed (constant-memory) compare of Base vs OptS at
// refs large enough for many ~1M-event chunks per replay.
func streamRep(seed int64, traced bool) (*repResult, error) {
	r := newRep()
	rec := newRecorder(traced)
	t0 := time.Now()
	env, err := expt.NewEnv(expt.Options{OSRefs: streamRefs, KernelSeed: seed, Par: par(), Recorder: rec, Stream: oslayout.StreamOn})
	r.Setup = since(t0)
	if err != nil {
		return nil, fmt.Errorf("building study: %w", err)
	}
	r.Attempted++
	start := time.Now()
	c, d, _, err := compareGrid(env, streamStrategies, 1)
	r.Run = since(start)
	switch {
	case err != nil:
		r.fail("stream", err)
	case !env.St.Streaming():
		r.fail("stream", fmt.Errorf("the study did not stream"))
	default:
		r.Ops = append(r.Ops, r.Run)
		r.Parts["stream"] = r.Run
		r.Digests["stream"] = d
	}
	if traced && c != nil {
		t := time.Now()
		c.Render()
		r.layer("expt.render_s", since(t))
		envLayers(r, env, rec)
		probeLayers(r, env.St, seed, streamStrategies)
	}
	return r, nil
}
