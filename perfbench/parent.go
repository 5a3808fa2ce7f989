package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runBudget bounds one invocation: every repetition must have ended by
// then, so the process exits inside the 180 s the driver allows.
const runBudget = 165 * time.Second

// minReps is the fewest repetitions an untraced run makes, however short
// --seconds is: medians of fewer would follow single noisy repetitions.
const minReps = 3

//go:embed digests.json
var digestsJSON []byte

// recordedDigests returns the digests recorded for (seed, workload), or nil
// when that seed was never recorded.
func recordedDigests(seed int64, workload string) (map[string]string, error) {
	var all map[string]map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("parsing digests.json: %w", err)
	}
	return all[fmt.Sprint(seed)][workload], nil
}

// childRun is one finished repetition with its process accounting.
type childRun struct {
	res    *repResult
	rssMiB float64 // peak resident set of the child, from rusage
	cpu    float64 // user+sys CPU seconds of the child, from rusage
	wall   float64
}

// spawn runs one repetition in a fresh child process.
func spawn(ctx context.Context, workload string, seed int64, traced bool) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", workload,
		"-seed", fmt.Sprint(seed), fmt.Sprintf("-traced=%t", traced))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// The child dies with the parent, so no repetition outlives a killed run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.WaitDelay = 5 * time.Second
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s repetition: %w", workload, err)
	}
	cr := &childRun{wall: since(start)}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		cr.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	line := bytes.TrimSpace(out.Bytes())
	if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	cr.res = new(repResult)
	if err := json.Unmarshal(line, cr.res); err != nil {
		return nil, fmt.Errorf("%s repetition printed no result: %w", workload, err)
	}
	return cr, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// metric is one entry of the result's "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runParent runs the repetitions of one invocation, checks them and prints
// the diagnostics line and the result line.
func runParent(workload string, seed int64, seconds int, traced bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	expected, err := recordedDigests(seed, workload)
	if err != nil {
		return err
	}

	var runs []*childRun
	var spawnErr error
	start := time.Now()
	if traced {
		// One untraced and one traced repetition: the per-layer metrics come
		// from the traced one, the tracing overhead from their difference.
		for _, tr := range []bool{false, true} {
			cr, err := spawn(ctx, workload, seed, tr)
			if err != nil {
				spawnErr = err
				break
			}
			runs = append(runs, cr)
		}
	} else {
		for {
			cr, err := spawn(ctx, workload, seed, false)
			if err != nil {
				spawnErr = err
				break
			}
			runs = append(runs, cr)
			// Start another repetition while one more still fits in the
			// measured time, and at least minReps.
			if len(runs) >= minReps && since(start)+cr.wall > float64(seconds) {
				break
			}
		}
	}
	if len(runs) == 0 {
		return spawnErr
	}

	res := result{Correct: spawnErr == nil}
	var failures []string
	if spawnErr != nil {
		res.Attempted++
		res.Failed++
		failures = append(failures, spawnErr.Error())
	}
	for i, cr := range runs {
		res.Attempted += cr.res.Attempted
		res.Failed += cr.res.Failed
		failures = append(failures, cr.res.Failures...)
		// Without recorded digests for this seed, every repetition must
		// reproduce the first one's results.
		want := expected
		if want == nil && i > 0 {
			want = runs[0].res.Digests
		}
		bad := checkDigests(want, cr.res.Digests)
		res.Failed += len(bad)
		failures = append(failures, bad...)
		if len(cr.res.Digests) == 0 {
			res.Correct = false
			failures = append(failures, "repetition rendered nothing")
		}
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}

	diag := map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
		"host":             hostFacts(),
		"digests_recorded": expected != nil,
		"failures":         failures,
	}
	var reps []map[string]any
	for _, cr := range runs {
		rep := map[string]any{
			"setup_s": cr.res.Setup, "run_s": cr.res.Run, "wall_s": cr.wall,
			"peak_rss_mib": cr.rssMiB, "cpu_s": cr.cpu, "gc_pause_s": cr.res.GCPause,
			"ops": len(cr.res.Ops),
		}
		for k, v := range cr.res.Info {
			rep[k] = v
		}
		reps = append(reps, rep)
	}
	diag["repetitions"] = reps

	if traced {
		res.Metrics = layerMetrics(runs)
	} else {
		res.Metrics = endToEndMetrics(runs, diag)
	}

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"perfbench": diag}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// layerMetrics reports every per-layer metric of the last (traced)
// repetition, plus the tracing overhead against the untraced one before it.
func layerMetrics(runs []*childRun) map[string]metric {
	m := map[string]metric{}
	tr := runs[len(runs)-1]
	for _, name := range layerNames() {
		m[name] = metric{Value: tr.res.Layers[name], Unit: layerUnit(name)}
	}
	m["trace.run_s"] = metric{Value: tr.res.Run, Unit: "s"}
	if len(runs) > 1 {
		m["trace.overhead_s"] = metric{Value: tr.res.Run - runs[0].res.Run, Unit: "s"}
	}
	return m
}

// endToEndMetrics reduces untraced repetitions to the end-to-end metrics:
// medians over repetitions, and the operation latencies pooled across them.
// run_s sums each part's median over the repetitions, so a burst of host
// noise that slows one part of one repetition does not move it. The tail's
// percentile and sample count go to diag.
func endToEndMetrics(runs []*childRun, diag map[string]any) map[string]metric {
	var setups, ops, rss, cpu []float64
	parts := map[string][]float64{}
	for _, cr := range runs {
		setups = append(setups, cr.res.Setup)
		ops = append(ops, cr.res.Ops...)
		rss = append(rss, cr.rssMiB)
		cpu = append(cpu, cr.cpu)
		for name, v := range cr.res.Parts {
			parts[name] = append(parts[name], v)
		}
	}
	var run float64
	for _, xs := range parts {
		run += median(xs)
	}
	tailV, tailP := tail(ops)
	diag["op_n"] = len(ops)
	diag["op_tail_percentile"] = tailP
	diag["cpu_s_median"] = median(cpu)
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"run_s":        {run, "s"},
		"op_p50_s":     {median(ops), "s"},
		"op_tail_s":    {tailV, "s"},
		"peak_rss_mib": {median(rss), "MiB"},
	}
}

// hostFacts records what a result depends on besides the code: core count,
// scheduler width, toolchain and source revision.
func hostFacts() map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"git_revision":  rev,
		"source_sha256": sourceDigest("."),
	}
}

// sourceDigest hashes the module's Go sources and go.mod files under root,
// identifying the code measured when the checkout carries no git metadata.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(f))
		_, err = io.Copy(h, fh)
		fh.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
