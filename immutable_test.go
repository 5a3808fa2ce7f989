package oslayout_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"

	"oslayout"
	"oslayout/internal/expt"
	"oslayout/internal/strategy"
)

// TestStrategiesBuildConcurrently builds every registered strategy from
// several profiles and cache sizes on one study at once, bypassing the
// strategy cache, and requires each layout to equal the serial build of the
// same (strategy, profile, size). Run under -race: builds only read the
// shared program and profiles.
func TestStrategiesBuildConcurrently(t *testing.T) {
	st, err := oslayout.NewStudy(oslayout.StudyOptions{
		Kernel: oslayout.KernelConfig{Seed: 11, TotalCodeBytes: 250 << 10, PoolScale: 0.3},
		Trace:  oslayout.TraceOptions{OSRefs: 150_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	type build struct {
		name string
		p    strategy.Params
	}
	var builds []build
	for _, name := range strategy.Names() {
		for _, prof := range []string{"avg", "w0", "w1"} {
			for _, size := range []int{4 << 10, 8 << 10} {
				builds = append(builds, build{name, strategy.Params{CacheSize: size, Profile: prof}})
			}
		}
	}
	run := func(b build) ([]uint64, error) {
		s, err := strategy.Get(b.name)
		if err != nil {
			return nil, err
		}
		l, _, err := s.Build(st, b.p)
		if err != nil {
			return nil, err
		}
		return l.Addr, nil
	}
	want := make([][]uint64, len(builds))
	for i, b := range builds {
		if want[i], err = run(b); err != nil {
			t.Fatalf("%s/%+v: %v", b.name, b.p, err)
		}
	}
	got := make([][]uint64, len(builds))
	errs := make([]error, len(builds))
	var wg sync.WaitGroup
	for i, b := range builds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(b)
		}()
	}
	wg.Wait()
	for i, b := range builds {
		if errs[i] != nil {
			t.Errorf("%s/%+v: %v", b.name, b.p, errs[i])
		} else if !slices.Equal(got[i], want[i]) {
			t.Errorf("%s/%+v: concurrent build differs from the serial one", b.name, b.p)
		}
	}
}

// studyDigest hashes everything a study's experiments read and must never
// write: the kernel and application programs and every profile value.
func studyDigest(t *testing.T, st *oslayout.Study) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(st.Kernel.Prog); err != nil {
		t.Fatal(err)
	}
	profs := []*oslayout.Profile{st.AvgOS}
	for _, d := range st.Data {
		profs = append(profs, d.OSProfile)
		if d.App != nil {
			if err := enc.Encode(d.App.Prog); err != nil {
				t.Fatal(err)
			}
			profs = append(profs, d.AppProfile)
		}
	}
	for i, p := range profs {
		fmt.Fprintf(h, "profile %d\n", i)
		if _, err := p.WriteTo(h); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestExperimentsLeaveStudyUnchanged runs every registered experiment on one
// environment and requires the study's programs and profiles to be
// bit-identical afterwards, so experiments sharing a pooled study cannot
// see each other's profile choices.
func TestExperimentsLeaveStudyUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	env, err := expt.NewEnv(expt.Options{OSRefs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	before := studyDigest(t, env.St)
	for _, name := range expt.Names() {
		if _, err := expt.Run(env, name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if after := studyDigest(t, env.St); after != before {
		t.Fatalf("experiments changed the study: digest %.12s -> %.12s", before, after)
	}
}
