package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json's metric lists to
// the metrics the code reports, names and units both.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	m := &meter{lat: []float64{1}, loop: []float64{1}, latRef: []int{0}, setup: []float64{1}, setupRef: []int{0}, wall: time.Second}
	var e2e []decl
	for _, r := range m.endToEnd() {
		e2e = append(e2e, decl{r.name, r.unit})
	}
	var layers []decl
	for _, l := range perLayer {
		layers = append(layers, decl{l.name, l.unit})
	}
	if got, want := jsonOf(t, spec.EndToEnd), jsonOf(t, e2e); got != want {
		t.Errorf("end_to_end:\n BENCHMARK.json %s\n code           %s", got, want)
	}
	if got, want := jsonOf(t, spec.PerLayer), jsonOf(t, layers); got != want {
		t.Errorf("per_layer:\n BENCHMARK.json %s\n code           %s", got, want)
	}
}

func jsonOf(t *testing.T, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p         float64
		want      float64
		wantAfter int
	}{{50, 5, 5}, {75, 8, 2}, {90, 9, 1}, {100, 10, 0}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
		if got := beyond(len(xs), c.p); got != c.wantAfter {
			t.Errorf("beyond p%g = %d, want %d", c.p, got, c.wantAfter)
		}
	}
}

// TestScale checks that a time is scaled by the reference samples
// around it: refSide before it and refSide from it on.
func TestScale(t *testing.T) {
	ref := []float64{refNominal, refNominal, 2 * refNominal, 2 * refNominal, 2 * refNominal, 2 * refNominal}
	for _, c := range []struct {
		k    int
		want float64
	}{{0, 1}, {1, 1}, {2, 1 / 1.5}, {4, 0.5}, {6, 0.5}} {
		if got := scale(ref, c.k); got != c.want {
			t.Errorf("scale(ref, %d) = %g, want %g", c.k, got, c.want)
		}
	}
	if got := scale(nil, 3); got != 1 {
		t.Errorf("scale(nil, 3) = %g, want 1", got)
	}
}

func TestBucket(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"drftest/internal/viper.(*TCP).handle", "drftest/internal/sim.(*Kernel).Run"}, "viper"},
		{[]string{"runtime.memmove", "drftest/internal/cache.(*Array).Lookup"}, "cache"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "drftest/internal/core.New"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "runtime.gc"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "drftest/internal/core.(*Tester).pickData"}, "runtime.map"},
		{[]string{"encoding/json.(*encodeState).string", "drftest/internal/harness.(*Artifact).Encode"}, "harness"},
		{[]string{"drftest/internal/directory.(*Directory).start"}, "other"},
		{[]string{"main.(*meter).do"}, "perfbench"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "main.refKernel", "main.timeRef"}, "perfbench"},
		{[]string{"runtime.mapaccess1_fast64", "main.timeRef", "main.(*meter).takeRef"}, "perfbench"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "runtime.other"},
	} {
		if got := bucket(c.frames); got != c.want {
			t.Errorf("bucket(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestCPUTableParsesProfile buckets a real CPU profile of this process.
func TestCPUTableParsesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	table, samples, err := cpuTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("no samples decoded")
	}
	var sum float64
	for _, b := range cpuBuckets {
		sum += table[b]
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("buckets sum to %g%%, want 100%%", sum)
	}
	if table["perfbench"] == 0 {
		t.Errorf("the busy loop's samples were not attributed to perfbench: %v", table)
	}
}
