package profile

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"oslayout/internal/program"
	"oslayout/internal/progtest"
	"oslayout/internal/trace"
)

func figure9Profile(seed int64) (*program.Program, *Profile) {
	f := progtest.Figure9()
	w := trace.NewWalker(f.Prog, trace.DomainOS, rand.New(rand.NewSource(seed)), nil)
	tr := &trace.Trace{Name: "t", OS: f.Prog}
	for i := 0; i < 25; i++ {
		tr.Events = append(tr.Events, trace.BeginEvent(program.SeedInterrupt))
		tr.Events = w.WalkInvocation(f.Push, tr.Events)
		tr.Events = append(tr.Events, trace.EndEvent())
	}
	pr, _ := FromTrace(tr)
	return f.Prog, pr
}

func TestProfileRoundTrip(t *testing.T) {
	p, pr := figure9Profile(5)
	var buf bytes.Buffer
	n, err := pr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadProfile(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() != pr.Total() || got.TotalInvocations() != pr.TotalInvocations() {
		t.Fatal("totals changed in round trip")
	}
	for i := range pr.Block {
		if got.Block[i] != pr.Block[i] {
			t.Fatalf("block %d differs", i)
		}
		for j := range pr.Arc[i] {
			if got.Arc[i][j] != pr.Arc[i][j] {
				t.Fatalf("arc %d/%d differs", i, j)
			}
		}
		if got.Call[i] != pr.Call[i] {
			t.Fatalf("call %d differs", i)
		}
	}
	for i := range pr.RoutineInv {
		if got.RoutineInv[i] != pr.RoutineInv[i] {
			t.Fatalf("routine %d differs", i)
		}
	}
}

func TestReadProfileRejectsMismatch(t *testing.T) {
	p, pr := figure9Profile(5)
	var buf bytes.Buffer
	if _, err := pr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	other, _ := progtest.Linear(3, 8)
	if _, err := ReadProfile(bytes.NewReader(data), other); err == nil {
		t.Fatal("wrong-shape program accepted")
	}
	bad := append([]byte{}, data...)
	bad[0] = 'X'
	if _, err := ReadProfile(bytes.NewReader(bad), p); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadProfile(bytes.NewReader(data[:8]), p); err == nil {
		t.Fatal("truncation accepted")
	}
	bad = append([]byte{}, data...)
	bad[4] = 42
	if _, err := ReadProfile(bytes.NewReader(bad), p); err == nil {
		t.Fatal("bad version accepted")
	}
}

// TestQuickProfileIORoundTrip property-checks the codec across random
// profiles.
func TestQuickProfileIORoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		p, pr := figure9Profile(seed)
		var buf bytes.Buffer
		if _, err := pr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadProfile(&buf, p)
		if err != nil {
			return false
		}
		if err := got.Fits(p); err != nil {
			return false
		}
		return got.Total() == pr.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
