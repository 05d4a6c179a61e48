package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// counts are a pass's deterministic outcomes (simulated ticks, events,
// schedules, ...), in a fixed order. Every pass of one workload runs the
// same inputs, so every pass — traced or not — must produce the same
// counts.
type counts []count

type count struct {
	name string
	v    uint64
}

func (c counts) get(name string) uint64 {
	for _, x := range c {
		if x.name == name {
			return x.v
		}
	}
	return 0
}

// diff describes how c differs from want ("" when identical).
func (c counts) diff(want counts) string {
	if len(c) != len(want) {
		return fmt.Sprintf("%d counts, want %d", len(c), len(want))
	}
	var out []string
	for i := range c {
		if c[i] != want[i] {
			out = append(out, fmt.Sprintf("%s=%d want %d", c[i].name, c[i].v, want[i].v))
		}
	}
	return strings.Join(out, ", ")
}

// workload is one set of inputs, built from the workload seed.
type workload interface {
	// pass runs the inputs once, timing each operation through m, and
	// returns the pass's deterministic counts, or nil when m.done cut it
	// short.
	pass(m *meter) counts
	// named returns the workload's own end-to-end figures under the
	// names users know them by (memops/s, seeds/s, ...).
	named(m *meter) []row
	// layers returns the per-layer metrics of a traced phase.
	layers(m *meter) map[string]float64
	// probeConfig is the system and tester configuration the cut probe
	// snapshots mid-run.
	probeConfig() probeConfig
}

// preparer is a workload whose set-up its operations do not include; it
// is timed once per run, before the measured loop.
type preparer interface {
	prepare(m *meter)
}

// row is one printed figure with the sample count behind it.
type row struct {
	name    string
	value   float64
	unit    string
	samples int
}

// meter collects one measurement phase: per-operation latencies, set-up
// samples, failure accounting, the per-pass deterministic counts and
// the Go runtime's allocation and GC counters.
//
// Every latency, loop time and set-up sample also records how many
// reference-kernel samples had been taken when it ended, so endToEnd can
// scale it by the host speed measured around it (hostref.go).
type meter struct {
	tr        *tracer
	lat       []float64 // per-operation latency, ms
	loop      []float64 // per-operation loop time, ms: latency plus the work between operations
	latRef    []int     // per operation: reference samples taken before it ended
	rss       []float64 // resident set after each operation, MB
	setup     []float64 // set-up samples, s
	setupRef  []int
	ref       []float64 // reference-kernel times, ms
	refTime   time.Duration
	lastRef   time.Time
	mark      time.Time // end of the last operation or reference sample
	attempted int
	failed    int
	problems  []string
	passes    int
	first     counts
	start     time.Time
	budget    time.Duration
	wall      time.Duration
	nextReq   int64
	rt0, rt1  runtimeStats
}

// op is one request: a tester run, a campaign seed, an explored seed or
// a bug-hunt round. Spans begun through it share its request id.
type op struct {
	m    *meter
	req  int64
	root int32
	// lat, when set, is the operation's latency; otherwise the whole
	// call to meter.do is timed.
	lat time.Duration
}

func (o *op) begin(name string) int32 { return o.m.tr.begin(name, o.root, o.req) }

func (o *op) beginUnder(parent int32, name string) int32 {
	return o.m.tr.begin(name, parent, o.req)
}

func (o *op) end(id int32) { o.m.tr.end(id) }

// do runs one operation, times it, and accounts a returned error or a
// panic as a failed operation.
func (m *meter) do(name string, fn func(o *op) error) {
	m.nextReq++
	o := &op{m: m, req: m.nextReq}
	o.root = m.tr.begin(name, -1, o.req)
	t0 := time.Now()
	err := protect(func() error { return fn(o) })
	d := time.Since(t0)
	m.tr.end(o.root)
	if o.lat > 0 {
		d = o.lat
	}
	m.attempted++
	m.lat = append(m.lat, float64(d)/1e6)
	m.latRef = append(m.latRef, len(m.ref))
	m.rss = append(m.rss, rssMB("VmRSS"))
	now := time.Now()
	m.loop = append(m.loop, float64(now.Sub(m.mark))/1e6)
	m.mark = now
	if now.Sub(m.lastRef) >= refEvery {
		m.takeRef()
	}
	if err != nil {
		m.fail(fmt.Errorf("%s #%d: %w", name, o.req, err))
	}
}

// takeRef times the reference kernel, outside every operation and loop
// time.
func (m *meter) takeRef() {
	t0 := time.Now()
	m.ref = append(m.ref, timeRef())
	m.lastRef = time.Now()
	m.refTime += m.lastRef.Sub(t0)
	m.mark = m.lastRef
}

func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

func (m *meter) fail(err error) {
	m.failed++
	if len(m.problems) < 10 {
		m.problems = append(m.problems, err.Error())
	}
}

func (m *meter) addSetup(d time.Duration) {
	m.setup = append(m.setup, d.Seconds())
	m.setupRef = append(m.setupRef, len(m.ref))
}

// done reports that the budget has elapsed. The first pass always runs
// to completion; later passes stop at the next operation boundary, so a
// run overshoots its budget by at most one operation.
func (m *meter) done() bool {
	return m.passes > 0 && time.Since(m.start) >= m.budget
}

// run repeats w's pass until budget has elapsed and checks that every
// complete pass reproduced the first pass's counts.
func (m *meter) run(w workload, budget time.Duration) {
	m.takeRef()
	if p, ok := w.(preparer); ok {
		p.prepare(m)
	}
	m.rt0 = readRuntime()
	m.start, m.budget = time.Now(), budget
	m.mark, m.refTime = m.start, 0
	for !m.done() {
		// Each pass starts from a collected heap, as a fresh run would;
		// without it the resident set swung with where the previous
		// pass left the GC cycle.
		runtime.GC()
		c := w.pass(m)
		if c == nil {
			break
		}
		m.passes++
		if m.first == nil {
			m.first = c
		} else if d := c.diff(m.first); d != "" {
			m.fail(fmt.Errorf("pass %d not deterministic: %s", m.passes, d))
		}
	}
	m.wall = time.Since(m.start) - m.refTime
	m.rt1 = readRuntime()
}

// scaled returns xs[i] scaled to reference speed, where refAt[i] is the
// number of reference samples taken before xs[i] was measured.
func (m *meter) scaled(xs []float64, refAt []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * scale(m.ref, refAt[i])
	}
	return out
}

// endToEnd returns the end-to-end metrics for this phase; every time is
// scaled to reference speed. p75 is the highest latency percentile that
// keeps ten samples beyond it on the workload with the fewest operations
// per run (tester, about 70).
func (m *meter) endToEnd() []row {
	n := len(m.lat)
	lat := m.scaled(m.lat, m.latRef)
	var loopMs float64
	for _, x := range m.scaled(m.loop, m.latRef) {
		loopMs += x
	}
	return []row{
		{"setup_s", median(m.scaled(m.setup, m.setupRef)), "s", len(m.setup)},
		{"op_ms_p50", percentile(lat, 50), "ms", n},
		{"op_ms_p75", percentile(lat, 75), "ms", n},
		{"ops_per_s", ratio(float64(n), loopMs/1e3), "1/s", n},
		{"rss_mb", median(m.rss), "MB", n},
	}
}

// unscaled returns the end-to-end times as measured, and the median
// reference time, for the table.
func (m *meter) unscaled() []row {
	n := len(m.lat)
	return []row{
		{"host.ref_ms", median(m.ref), "ms", len(m.ref)},
		{"unscaled.setup_s", median(m.setup), "s", len(m.setup)},
		{"unscaled.op_ms_p50", percentile(m.lat, 50), "ms", n},
		{"unscaled.op_ms_p75", percentile(m.lat, 75), "ms", n},
		{"unscaled.ops_per_s", float64(n) / m.wall.Seconds(), "1/s", n},
	}
}

// runtimeStats are cumulative Go runtime counters.
type runtimeStats struct {
	allocs, bytes, gcCPU, totalCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{allocs: v(0), bytes: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// allocs and bytes are the phase's heap allocations; gcFrac its share of
// CPU time spent in the garbage collector.
func (m *meter) allocs() float64 { return m.rt1.allocs - m.rt0.allocs }
func (m *meter) bytes() float64  { return m.rt1.bytes - m.rt0.bytes }
func (m *meter) gcFrac() float64 {
	return ratio(m.rt1.gcCPU-m.rt0.gcCPU, m.rt1.totalCPU-m.rt0.totalCPU)
}
