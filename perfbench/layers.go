package main

import (
	"strings"
	"sync"
	"time"

	"oslayout"
	"oslayout/internal/cache"
	"oslayout/internal/expt"
	"oslayout/internal/kernelgen"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/profile"
	"oslayout/internal/program"
	"oslayout/internal/simulate"
	"oslayout/internal/strategy"
	"oslayout/internal/trace"
	"oslayout/internal/workload"
)

// probeSize is the cache size of the per-strategy layout-build probes.
const probeSize = 8 << 10

// layerNames lists every per-layer metric a traced run reports, in order.
// A workload that does not run a layer reports 0 for it.
func layerNames() []string {
	names := []string{
		"kernelgen.build_s", "workload.generate_s", "profile.collect_s", "profile.average_s",
		"strategy.build_s", "strategy.builds", "strategy.cache_hit_ratio",
	}
	for _, s := range strategy.Names() {
		names = append(names, "strategy.build_s."+s)
	}
	names = append(names,
		"simulate.decode_s", "simulate.compile_s", "simulate.drive_s",
		"simulate.stream_accesses", "simulate.elision_ratio",
		"cache.accesses", "cache.misses",
		"streamcache.hits", "streamcache.misses", "streamcache.bytes", "streamcache.evictions")
	for _, e := range expt.Names() {
		names = append(names, "expt.run_s."+e)
	}
	names = append(names, "expt.render_s",
		"serve.submit_s", "serve.queue_s", "serve.exec_s", "serve.notify_s",
		"serve.compare_job_p50_s", "serve.compare_job_tail_s",
		"serve.expt_job_p50_s", "serve.expt_job_tail_s",
		"serve.layout_cache_hits", "serve.layout_cache_misses",
		"serve.stream_cache_hits", "serve.stream_cache_misses", "serve.jobs_failed",
		"trace.run_s", "trace.overhead_s")
	return names
}

// layerUnit returns the unit of a per-layer metric, read off its name.
func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_s.") || strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case name == "streamcache.bytes":
		return "B"
	}
	return "count"
}

// envLayers reports the layers an experiment environment already accounts
// for: layout builds (the recorder's existing layout.<name> spans and the
// strategy cache's hit/miss counts) and the study's stream cache.
func envLayers(r *repResult, env *expt.Env, rec *obs.Recorder) {
	var build float64
	for _, p := range rec.Phases() {
		if strings.HasPrefix(p.Name, "layout.") {
			build += p.Millis / 1e3
		}
	}
	r.layer("strategy.build_s", build)
	hits, misses := env.LayoutCacheStats()
	r.layer("strategy.builds", float64(misses))
	if hits+misses > 0 {
		r.layer("strategy.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	sh, sm := env.StreamCacheStats()
	bytes, evictions := env.St.StreamCacheUsage()
	r.layer("streamcache.hits", float64(sh))
	r.layer("streamcache.misses", float64(sm))
	r.layer("streamcache.bytes", float64(bytes))
	r.layer("streamcache.evictions", float64(evictions))
}

// probeLayers times each lower layer from outside, by calling its public
// functions on the inputs of the repetition that just ran: kernel
// synthesis, trace generation and profiling, profile averaging, one build
// of every registered strategy, and the decode / compile / drive split of
// a compare grid over strategies x gridSizes.
func probeLayers(r *repResult, st *oslayout.Study, seed int64, strategies []string) {
	setupProbe(r, st, seed)
	for _, name := range strategy.Names() {
		s, err := strategy.Get(name)
		if err != nil {
			r.fail("probe."+name, err)
			continue
		}
		t := time.Now()
		if _, _, err := s.Build(st, strategy.Params{CacheSize: probeSize}); err != nil {
			r.fail("probe."+name, err)
		}
		r.layer("strategy.build_s."+name, since(t))
	}
	simulateProbe(r, st, strategies)
}

// setupProbe repeats the study's set-up layer by layer: kernelgen.Build,
// then per workload the chunk reader drained alone (generation) with every
// chunk fed to a profiler (collection), then profile.Average.
func setupProbe(r *repResult, st *oslayout.Study, seed int64) {
	kcfg := kernelgen.DefaultConfig()
	kcfg.Seed = seed
	t := time.Now()
	k := kernelgen.Build(kcfg)
	r.layer("kernelgen.build_s", since(t))

	var gen, collect time.Duration
	var osProfiles []*profile.Profile
	for i, d := range st.Data {
		t := time.Now()
		src, err := workload.NewSource(k, d.Workload, st.WorkloadTraceOptions(i))
		if err != nil {
			r.fail("probe.generate", err)
			return
		}
		gen += time.Since(t)
		var appProg *program.Program
		if src.App() != nil {
			appProg = src.App().Prog
		}
		tp := profile.NewTraceProfiler(k.Prog, appProg)
		rd := src.Open()
		for {
			t := time.Now()
			batch, err := rd.Read()
			gen += time.Since(t)
			if err != nil || len(batch) == 0 {
				break
			}
			t = time.Now()
			tp.Feed(batch)
			collect += time.Since(t)
		}
		osp, _ := tp.Profiles()
		osProfiles = append(osProfiles, osp)
	}
	r.layer("workload.generate_s", gen.Seconds())
	r.layer("profile.collect_s", collect.Seconds())
	t = time.Now()
	if _, err := profile.Average(osProfiles...); err != nil {
		r.fail("probe.average", err)
	}
	r.layer("profile.average_s", since(t))
}

// timedSource is a simulate.StreamSource that decodes and compiles through
// simulate's public functions, timing both, and memoizes the products so a
// second replay over it times the drive alone.
type timedSource struct {
	mu              sync.Mutex
	decoded         map[*trace.Trace]*simulate.Events
	streams         map[streamKey]*simulate.Stream
	decode, compile time.Duration
	accesses, refs  uint64
}

type streamKey struct {
	t         *trace.Trace
	osL, appL *layout.Layout
	lineSize  int
}

func newTimedSource() *timedSource {
	return &timedSource{decoded: map[*trace.Trace]*simulate.Events{}, streams: map[streamKey]*simulate.Stream{}}
}

func (s *timedSource) Stream(t *trace.Trace, osL, appL *layout.Layout, lineSize int) (*simulate.Stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := streamKey{t, osL, appL, lineSize}
	if st, ok := s.streams[key]; ok {
		return st, nil
	}
	ev, ok := s.decoded[t]
	if !ok {
		start := time.Now()
		ev = simulate.Decode(t)
		s.decode += time.Since(start)
		s.decoded[t] = ev
	}
	start := time.Now()
	st, err := simulate.CompileEvents(ev, t, osL, appL, lineSize)
	s.compile += time.Since(start)
	if err != nil {
		return nil, err
	}
	s.streams[key] = st
	s.accesses += uint64(st.Accesses())
	refs := ev.Refs()
	s.refs += refs[trace.DomainOS] + refs[trace.DomainApp]
	return st, nil
}

// simulateProbe replays a direct-mapped compare grid twice per workload
// through a timedSource: the first pass decodes and compiles every stream,
// the second drives the caches over the already-compiled streams, so its
// wall time is the drive alone. Header-only (streamed) traces are
// materialised one workload at a time first, since only materialised
// traces replay from compiled streams.
func simulateProbe(r *repResult, st *oslayout.Study, strategies []string) {
	type task struct {
		osL  *layout.Layout
		cfgs []cache.Config
	}
	var tasks []task
	for _, name := range strategies {
		s, err := strategy.Get(name)
		if err != nil {
			r.fail("probe.simulate", err)
			return
		}
		if !s.SizeDependent() {
			l, _, err := st.BuildStrategy(name, 0)
			if err != nil {
				r.fail("probe.simulate", err)
				return
			}
			var cfgs []cache.Config
			for _, size := range gridSizes {
				cfgs = append(cfgs, cache.Config{Size: size, Line: gridLine, Assoc: 1})
			}
			tasks = append(tasks, task{l, cfgs})
			continue
		}
		for _, size := range gridSizes {
			l, _, err := st.BuildStrategy(name, size)
			if err != nil {
				r.fail("probe.simulate", err)
				return
			}
			tasks = append(tasks, task{l, []cache.Config{{Size: size, Line: gridLine, Assoc: 1}}})
		}
	}

	var decode, compile, drive time.Duration
	var streamAccesses, refs, accesses, misses uint64
	for i, d := range st.Data {
		t := d.Trace
		if t.Streaming() {
			t = materialise(t)
		}
		appL := st.AppBaseLayout(i)
		src := newTimedSource()
		for _, tk := range tasks {
			if _, err := simulate.RunManyOpt(t, tk.osL, appL, tk.cfgs, simulate.Options{Streams: src, Workers: par()}); err != nil {
				r.fail("probe.simulate", err)
				return
			}
		}
		for _, tk := range tasks {
			start := time.Now()
			ress, err := simulate.RunManyOpt(t, tk.osL, appL, tk.cfgs, simulate.Options{Streams: src, Workers: par()})
			drive += time.Since(start)
			if err != nil {
				r.fail("probe.simulate", err)
				return
			}
			s, _ := src.Stream(t, tk.osL, appL, gridLine) // memoized by the first pass; cannot fail
			for _, res := range ress {
				accesses += uint64(s.Accesses())
				misses += res.Stats.TotalMisses()
			}
		}
		decode += src.decode
		compile += src.compile
		streamAccesses += src.accesses
		refs += src.refs
	}
	r.layer("simulate.decode_s", decode.Seconds())
	r.layer("simulate.compile_s", compile.Seconds())
	r.layer("simulate.drive_s", drive.Seconds())
	r.layer("simulate.stream_accesses", float64(streamAccesses))
	if refs > 0 {
		r.layer("simulate.elision_ratio", float64(streamAccesses)/float64(refs))
	}
	r.layer("cache.accesses", float64(accesses))
	r.layer("cache.misses", float64(misses))
}

// materialise drains a header-only trace into one holding its events, with
// the same programs (so the study's layouts still apply).
func materialise(t *trace.Trace) *trace.Trace {
	m := &trace.Trace{Name: t.Name, OS: t.OS, App: t.App}
	rd := t.Chunks()
	for {
		batch, err := rd.Read()
		if err != nil || len(batch) == 0 {
			break
		}
		m.Events = append(m.Events, batch...)
	}
	return m
}
