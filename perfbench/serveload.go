package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"oslayout/internal/expt"
	"oslayout/internal/obs"
	"oslayout/internal/serve"
)

// serveExperiments is the experiment job's work; the compare job's grid is
// serveStrategies x gridSizes.
var serveExperiments = []string{"table2", "fig15"}

// jobTiming is one job as the client saw it, plus the daemon's own
// Created/Started/Finished stamps.
type jobTiming struct {
	latency float64 // POST sent to the SSE "done" event received
	submit  float64 // POST round trip
	queue   float64 // Started - Created
	exec    float64 // Finished - Started
	notify  float64 // "done" received - Finished
}

// client drives a serve daemon over HTTP with one job outstanding.
type client struct {
	base string
	http *http.Client
}

// run submits one job and waits for its completion event on the job's SSE
// stream, then fetches the job's stamps and digests.
func (c *client) run(spec serve.JobSpec) (jobTiming, serve.JobStatus, error) {
	var tm jobTiming
	var st serve.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return tm, st, err
	}
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return tm, st, err
	}
	err = decodeJSON(resp, http.StatusAccepted, &st)
	tm.submit = since(t0)
	if err != nil {
		return tm, st, fmt.Errorf("submitting: %w", err)
	}
	if err := c.awaitDone(st.ID); err != nil {
		return tm, st, err
	}
	done := time.Now()
	tm.latency = done.Sub(t0).Seconds()

	resp, err = c.http.Get(c.base + "/api/jobs/" + st.ID + "?full=0")
	if err != nil {
		return tm, st, err
	}
	if err := decodeJSON(resp, http.StatusOK, &st); err != nil {
		return tm, st, fmt.Errorf("fetching status: %w", err)
	}
	if st.State != serve.StateDone {
		return tm, st, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.Started == nil || st.Finished == nil {
		return tm, st, fmt.Errorf("job %s finished without start/finish stamps", st.ID)
	}
	tm.queue = st.Started.Sub(st.Created).Seconds()
	tm.exec = st.Finished.Sub(*st.Started).Seconds()
	tm.notify = done.Sub(*st.Finished).Seconds()
	return tm, st, nil
}

// awaitDone reads the job's SSE stream until its "done" event.
func (c *client) awaitDone(id string) error {
	resp, err := c.http.Get(c.base + "/api/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return errors.New("events: stream ended without a done event")
}

func decodeJSON(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counters scrapes the unlabelled counters of /metrics.
func (c *client) counters() (map[string]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// serveRep runs an in-process serve daemon on loopback (one job worker,
// drive parallelism nproc) and drives it closed-loop with one client and
// one job outstanding, alternating an experiment job and a compare job.
func serveRep(seed int64, traced bool) (*repResult, error) {
	r := newRep()
	t0 := time.Now()
	srv := serve.New(serve.Config{Workers: 1, DrivePar: par()})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // a connection still open at exit changes nothing measured
		<-served
	}()
	c := &client{base: "http://" + ln.Addr().String(), http: &http.Client{Timeout: 150 * time.Second}}
	before, err := c.counters()
	if err != nil {
		return nil, err
	}

	compare := serve.JobSpec{Refs: serveRefs, Seed: seed,
		Compare: &serve.CompareSpec{Strategies: serveStrategies, Sizes: []string{"4k", "8k", "16k"}}}
	experiments := serve.JobSpec{Refs: serveRefs, Seed: seed, Experiments: serveExperiments}

	// Set-up ends when the first (cold) compare job has completed.
	r.Attempted++
	_, st, err := c.run(compare)
	r.Setup = since(t0)
	if err != nil {
		r.fail("serve.compare[cold]", err)
		return r, nil
	}
	r.Digests["serve.compare"] = st.Results["compare"].Digest
	phases := append([]obs.Phase(nil), st.Phases...)

	var jobs []jobTiming
	var exptLat []float64
	start := time.Now()
	for i := 0; i < servePairs; i++ {
		r.Attempted++
		tm, st, err := c.run(experiments)
		if err == nil {
			err = sameDigests(r.Digests, st.Results, "serve.")
		}
		if err != nil {
			r.fail(fmt.Sprintf("serve.experiments[%d]", i), err)
		} else {
			r.Parts[fmt.Sprintf("experiments[%d]", i)] = tm.latency
			jobs = append(jobs, tm)
			exptLat = append(exptLat, tm.latency)
			phases = append(phases, st.Phases...)
		}

		r.Attempted++
		tm, st, err = c.run(compare)
		if err == nil && st.Results["compare"].Digest != r.Digests["serve.compare"] {
			err = fmt.Errorf("digest %.12s differs from the cold job's %.12s", st.Results["compare"].Digest, r.Digests["serve.compare"])
		}
		if err != nil {
			r.fail(fmt.Sprintf("serve.compare[%d]", i), err)
		} else {
			r.Parts[fmt.Sprintf("compare[%d]", i)] = tm.latency
			jobs = append(jobs, tm)
			r.Ops = append(r.Ops, tm.latency)
			phases = append(phases, st.Phases...)
		}
	}
	r.Run = since(start)
	after, err := c.counters()
	if err != nil {
		return nil, err
	}

	// The daemon's compare grid must equal the same spec run in-process.
	env, err := expt.NewEnv(expt.Options{OSRefs: serveRefs, KernelSeed: seed, Par: par()})
	if err != nil {
		return nil, fmt.Errorf("building the in-process study: %w", err)
	}
	r.Attempted++
	if _, d, _, err := compareGrid(env, serveStrategies, 1); err != nil {
		r.fail("serve.compare[in-process]", err)
	} else if d != r.Digests["serve.compare"] {
		r.fail("serve.compare[in-process]", fmt.Errorf("daemon digest %.12s, in-process %.12s", r.Digests["serve.compare"], d))
	}

	r.Info["expt_job_p50_s"], r.Info["expt_job_tail_s"] = latencyStats(exptLat)
	if traced {
		serveLayers(r, jobs, exptLat, phases, before, after)
		probeLayers(r, env.St, seed, serveStrategies)
	}
	return r, nil
}

// sameDigests folds a job's result digests into want under prefix, failing
// when a result already seen under the same name rendered differently.
func sameDigests(want map[string]string, got map[string]serve.JobResult, prefix string) error {
	for name, res := range got {
		key := prefix + name
		if have, ok := want[key]; ok && have != res.Digest {
			return fmt.Errorf("%s: digest %.12s differs from the first job's %.12s", name, res.Digest, have)
		}
		want[key] = res.Digest
	}
	return nil
}

func latencyStats(xs []float64) (p50, tailV float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	tailV, _ = tail(xs)
	return median(xs), tailV
}

// serveLayers reports the daemon's layer split of the timed jobs and the
// /metrics counter deltas over the repetition.
func serveLayers(r *repResult, jobs []jobTiming, exptLat []float64, phases []obs.Phase, before, after map[string]float64) {
	var submit, queue, exec, notify float64
	for _, j := range jobs {
		submit += j.submit
		queue += j.queue
		exec += j.exec
		notify += j.notify
	}
	r.layer("serve.submit_s", submit)
	r.layer("serve.queue_s", queue)
	r.layer("serve.exec_s", exec)
	r.layer("serve.notify_s", notify)
	p50, tl := latencyStats(r.Ops)
	r.layer("serve.compare_job_p50_s", p50)
	r.layer("serve.compare_job_tail_s", tl)
	p50, tl = latencyStats(exptLat)
	r.layer("serve.expt_job_p50_s", p50)
	r.layer("serve.expt_job_tail_s", tl)

	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("oslayout_layout_cache_hits_total"), delta("oslayout_layout_cache_misses_total")
	r.layer("serve.layout_cache_hits", hits)
	r.layer("serve.layout_cache_misses", misses)
	r.layer("serve.stream_cache_hits", delta("oslayout_streamcache_hits_total"))
	r.layer("serve.stream_cache_misses", delta("oslayout_streamcache_misses_total"))
	r.layer("serve.jobs_failed", delta("oslayout_jobs_failed_total"))
	r.layer("strategy.builds", misses)
	if hits+misses > 0 {
		r.layer("strategy.cache_hit_ratio", hits/(hits+misses))
	}
	r.layer("streamcache.hits", delta("oslayout_streamcache_hits_total"))
	r.layer("streamcache.misses", delta("oslayout_streamcache_misses_total"))

	var build float64
	runS := map[string]float64{}
	for _, p := range phases {
		switch {
		case strings.HasPrefix(p.Name, "layout."):
			build += p.Millis / 1e3
		case strings.HasPrefix(p.Name, "experiment."):
			runS[strings.TrimPrefix(p.Name, "experiment.")] += p.Millis / 1e3
		}
	}
	r.layer("strategy.build_s", build)
	for name, v := range runS {
		r.layer("expt.run_s."+name, v)
	}
}
