// Command perfbench is the repository's benchmark. One process runs one
// workload for a fixed wall-clock budget, drives the system only through
// its public Go entry points, checks every output, and prints its
// metrics: a human-readable table, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// Usage:
//
//	perfbench --workload tester|campaign|explore|bughunt --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics. --trace 1 spends half the
// budget untraced and half traced (spans around every public call this
// benchmark makes, plus a CPU profile), reports the per-layer metrics,
// prints the tracing overhead on every end-to-end metric, and writes the
// spans and the profile under --out. See README.md for every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

func main() {
	// One processor: the system under test is single-threaded except
	// for the online checker's pipeline, which folds inline when
	// GOMAXPROCS is 1. With two, the cross-thread handoff and whatever
	// else runs on the second CPU made the same seed's tester latency
	// swing by a third between runs. The price: no workload measures the
	// pipeline's off-thread fold, so this benchmark cannot judge keeping
	// or removing it.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

var workloadNames = []string{"tester", "campaign", "explore", "bughunt"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed: every input is derived from it")
	seconds := fs.Float64("seconds", 10, "wall-clock seconds to measure")
	traceMode := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for spans, profiles and temporary artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	tmp := filepath.Join(*out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	newWorkload := func() workload {
		switch *name {
		case "tester":
			return newTesterWorkload(*seed)
		case "campaign":
			return newCampaignWorkload(*seed)
		case "explore":
			return newExploreWorkload(*seed)
		case "bughunt":
			return newBughuntWorkload(*seed, tmp)
		}
		return nil
	}
	if newWorkload() == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	h := host()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceMode)
	fmt.Fprintf(stdout, "host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s %s\n", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.OS)

	var res result
	var err error
	if *traceMode == 0 {
		m := &meter{}
		w := newWorkload()
		m.run(w, budget)
		printPhase(stdout, "end-to-end", m, w)
		res = newResult(m.attempted, m.failed, m.endToEnd())
	} else {
		res, err = traced(stdout, newWorkload, budget, *out, fmt.Sprintf("%s-seed%d", *name, *seed), h)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// traced runs half the budget untraced and half traced, checks the two
// halves' deterministic counts agree, and returns the per-layer result.
func traced(stdout io.Writer, newWorkload func() workload, budget time.Duration, out, tag string, h hostInfo) (result, error) {
	plain := &meter{}
	pw := newWorkload()
	plain.run(pw, budget/2)

	m := &meter{tr: newTracer()}
	w := newWorkload()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	m.run(w, budget/2)
	pprof.StopCPUProfile()

	if d := m.first.diff(plain.first); d != "" {
		m.fail(fmt.Errorf("traced counts differ from untraced: %s", d))
	}
	printPhase(stdout, "untraced half", plain, pw)
	printPhase(stdout, "traced half", m, w)

	fmt.Fprintln(stdout, "tracing overhead (traced - untraced):")
	base := plain.endToEnd()
	for i, r := range m.endToEnd() {
		fmt.Fprintf(stdout, "  %-22s %+14.6g %-6s (%+.1f%%)\n", r.name, r.value-base[i].value, r.unit,
			100*ratio(r.value-base[i].value, base[i].value))
	}

	layers := w.layers(m)
	layers["runtime.peak_rss_mb"] = rssMB("VmHWM")
	layers["host.ref_ms"] = median(m.ref)
	probe, err := cutProbe(w.probeConfig())
	if err != nil {
		m.fail(err)
	}
	for k, v := range probe {
		layers[k] = v
	}
	profPath := filepath.Join(out, "cpu-"+tag+".pprof")
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	cpu, samples, err := cpuTable(profPath)
	if err != nil {
		return result{}, err
	}
	for k, v := range cpu {
		layers["cpu."+k] = v
	}

	fmt.Fprintln(stdout, "span self time (traced half):")
	for _, lt := range m.tr.selfTimes() {
		fmt.Fprintf(stdout, "  %-32s calls=%-7d total=%10.1fms self=%10.1fms\n", lt.Name, lt.Calls, lt.TotalMs, lt.SelfMs)
	}
	fmt.Fprintf(stdout, "cpu table (%d samples, traced half):\n", samples)
	for _, b := range cpuBuckets {
		fmt.Fprintf(stdout, "  cpu.%-18s %6.2f%%\n", b, cpu[b])
	}

	var rows []row
	for _, l := range perLayer {
		rows = append(rows, row{name: l.name, value: layers[l.name], unit: l.unit})
		delete(layers, l.name)
	}
	if len(layers) > 0 {
		return result{}, fmt.Errorf("per-layer metrics not declared in perLayer: %v", keys(layers))
	}
	fmt.Fprintln(stdout, "per-layer metrics:")
	printRows(stdout, rows)

	header := map[string]any{"workload": tag, "host": h, "selfTimes": m.tr.selfTimes()}
	if err := m.tr.writeSpans(filepath.Join(out, "spans-"+tag+".jsonl"), header); err != nil {
		return result{}, err
	}
	return newResult(plain.attempted+m.attempted, plain.failed+m.failed, rows), nil
}

func printPhase(w io.Writer, title string, m *meter, wl workload) {
	fmt.Fprintf(w, "%s: %d passes in %.2fs, %d operations, %d failed\n", title, m.passes, m.wall.Seconds(), m.attempted, m.failed)
	for _, p := range m.problems {
		fmt.Fprintln(w, "  FAILED:", p)
	}
	for _, c := range m.first {
		fmt.Fprintf(w, "  count %-22s %d\n", c.name, c.v)
	}
	printRows(w, append(append(m.endToEnd(), m.unscaled()...), wl.named(m)...))
}

// printRows prints figures with their sample counts; a percentile with
// fewer than ten samples beyond it is flagged.
func printRows(w io.Writer, rows []row) {
	for _, r := range rows {
		note := ""
		if p := percentileOf(r.name); p > 0 && r.samples > 0 {
			note = fmt.Sprintf(" (%d beyond)", beyond(r.samples, p))
			if beyond(r.samples, p) < 10 {
				note += " UNDER-SAMPLED"
			}
		}
		n := ""
		if r.samples > 0 {
			n = fmt.Sprintf(" n=%d", r.samples)
		}
		fmt.Fprintf(w, "  %-36s %16.4f %-6s%s%s\n", r.name, r.value, r.unit, n, note)
	}
}

// percentileOf parses the percentile a metric name ends in ("_p95" →
// 95), 0 for none.
func percentileOf(name string) float64 {
	i := strings.LastIndex(name, "_p")
	if i < 0 {
		return 0
	}
	var p float64
	if _, err := fmt.Sscanf(name[i+2:], "%g", &p); err != nil {
		return 0
	}
	return p
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(attempted, failed int, rows []row) result {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, x := range rows {
		r.Metrics[x.name] = metric{Value: x.value, Unit: x.unit}
	}
	return r
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// subSeed derives a workload's base seed from the workload seed
// (splitmix64 over the seed and the workload name), so different
// workloads and different seeds draw disjoint inputs.
func subSeed(seed uint64, name string) uint64 {
	x := seed
	for _, c := range name {
		x = x*31 + uint64(c)
	}
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	// Keep seeds far from overflow: sessions add offsets to them.
	return x>>20 + 1
}
