package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

// TestDescriptionMatchesCode checks that BENCHMARK.json names exactly
// the workloads and metrics the benchmark runs and prints.
func TestDescriptionMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var desc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &desc); err != nil {
		t.Fatal(err)
	}

	var want, got []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	for _, w := range desc.Workloads {
		got = append(got, w.Name)
	}
	sameList(t, "workloads", got, want)

	want, got = nil, nil
	for name, m := range newBench("dispatch", 1, time.Second, false).endToEnd() {
		want = append(want, name+" "+m.Unit)
	}
	for _, m := range desc.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	sort.Strings(want)
	sort.Strings(got)
	sameList(t, "end_to_end", got, want)

	want, got = nil, nil
	for _, m := range perLayerMetrics {
		want = append(want, m.name+" "+m.unit+" "+m.better)
	}
	for _, m := range desc.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	sameList(t, "per_layer", got, want)
}

func sameList(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json has %d entries, the code %d:\n%q\n%q", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s[%d]: BENCHMARK.json %q, code %q", what, i, got[i], want[i])
		}
	}
}

// TestCPUSharesDecodesProfile feeds a real CPU profile through the
// decoder: every sample of a benchmark-only busy loop lands in "other".
func TestCPUSharesDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	shares, total, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || shares["other"] != total {
		t.Fatalf("total %d ns, shares %v (sink %d)", total, shares, x)
	}
}

func TestModuleOf(t *testing.T) {
	strs := []string{"", "vino/internal/sfi.(*Program).run.func3", "vino/internal/graft.(*Point).Invoke", "runtime.mallocgc", "vino.RunChaos"}
	for i, want := range []string{"", "sfi", "graft", "", ""} {
		if got := moduleOf(strs, int64(i)); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", strs[i], got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.75: 4, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
