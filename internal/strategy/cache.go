package strategy

import (
	"sync"

	"oslayout/internal/core"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
)

// Built is one memoized strategy product.
type Built struct {
	Layout *layout.Layout
	// Plan is non-nil only for strategies built on the paper's placement
	// algorithm.
	Plan *core.Plan
}

// cacheKey identifies one build: (strategy name, profile, cache size).
// Size-independent strategies normalise the size to 0 so requests at
// different cache sizes share one entry.
type cacheKey struct {
	name    string
	profile string
	size    int
}

// entry is one memoized (possibly in-flight) build; ready is closed once b
// and err are final.
type entry struct {
	b     *Built
	err   error
	ready chan struct{}
}

// Cache memoizes strategy builds for one study, single-flight per key:
// concurrent requests for one key share a single build, and builds of
// different keys run concurrently. Builds read immutable profiles and
// never write the program, so nothing but the memo map itself needs
// coordination: the map and the hit/miss statistics sit under a short
// mutex that is never held while a build runs.
type Cache struct {
	st Study

	mu    sync.Mutex
	built map[cacheKey]*entry
	hits  uint64
	miss  uint64
}

// NewCache returns an empty cache over the study.
func NewCache(st Study) *Cache {
	return &Cache{st: st, built: make(map[cacheKey]*entry)}
}

// Stats returns how many Build/Custom requests were served from the memo
// map versus built fresh — the layout-build cache-efficiency signal the
// serve daemon exports as Prometheus counters. A request that joins an
// in-flight build counts as a hit: it caused no work.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.miss
}

// Build returns the memoized product of the named strategy, building it on
// first use. A cache-miss build is timed on rec (nil records nothing) as a
// "layout.<name>" span, so the span lands on the requester's recorder.
// Errors are not cached.
func (c *Cache) Build(name string, p Params, rec *obs.Recorder) (*Built, error) {
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	key := cacheKey{name: name, profile: p.profile(), size: p.CacheSize}
	if !s.SizeDependent() {
		key.size = 0
	}
	return c.do(key, rec, func() (*layout.Layout, *core.Plan, error) { return s.Build(c.st, p) })
}

// Custom memoizes a caller-supplied build under an opaque key, for
// parameter variants outside the registry (SelfConfFree-cutoff sweeps, the
// Resv setup, per-workload application layouts). Keys live in a separate
// namespace from registered strategy names; a key must name everything the
// build reads, the profile included. Cache-miss builds are timed on rec as
// "layout.custom:<key>" spans.
func (c *Cache) Custom(key string, rec *obs.Recorder, build func(Study) (*layout.Layout, *core.Plan, error)) (*Built, error) {
	return c.do(cacheKey{name: "custom:" + key}, rec, func() (*layout.Layout, *core.Plan, error) { return build(c.st) })
}

// do returns the entry for k, running build on the first request only.
// Later requests wait for the in-flight build instead of repeating it; a
// failed build is forgotten so the next request retries.
func (c *Cache) do(k cacheKey, rec *obs.Recorder, build func() (*layout.Layout, *core.Plan, error)) (*Built, error) {
	c.mu.Lock()
	if e, ok := c.built[k]; ok {
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.b, e.err
	}
	c.miss++
	e := &entry{ready: make(chan struct{})}
	c.built[k] = e
	c.mu.Unlock()

	done := rec.Span("layout." + k.name)
	l, plan, err := build()
	done()
	if err != nil {
		e.err = err
		c.mu.Lock()
		delete(c.built, k)
		c.mu.Unlock()
	} else {
		e.b = &Built{Layout: l, Plan: plan}
	}
	close(e.ready)
	return e.b, e.err
}
