package expt

import (
	"sync"
	"testing"

	"oslayout/internal/obs"
)

// TestBuildSpansLandOnRequester builds two different strategies
// concurrently through two environments sharing one study, each with its
// own recorder: every layout build span must land on the recorder of the
// environment that asked for the build, and on no other.
func TestBuildSpansLandOnRequester(t *testing.T) {
	st, err := BuildStudy(Options{OSRefs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	builds := []string{"ch", "opts"}
	recs := make([]*obs.Recorder, len(builds))
	envs := make([]*Env, len(builds))
	for i := range builds {
		recs[i] = obs.NewRecorder()
		if envs[i], err = NewEnv(Options{Study: st, Recorder: recs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, name := range builds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := envs[i].Layout(name, DefaultCache.Size); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	wg.Wait()
	for i, name := range builds {
		spans := map[string]int{}
		for _, ph := range recs[i].Phases() {
			spans[ph.Name]++
		}
		for j, other := range builds {
			want := 0
			if j == i {
				want = 1
			}
			if got := spans["layout."+other]; got != want {
				t.Errorf("env building %s recorded %d layout.%s spans, want %d (spans %v)",
					name, got, other, want, spans)
			}
		}
	}
}
