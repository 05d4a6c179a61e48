package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// cpuModules are the repository layers the CPU table names; samples in
// other internal packages go to "other".
var cpuModules = []string{
	"sim", "viper", "protocol", "cache", "mem", "memctrl", "core", "checker",
	"coverage", "harness", "explore", "trace", "network", "stats", "rng",
}

// cpuBuckets are the CPU table's rows, in print order.
var cpuBuckets = append(append([]string(nil), cpuModules...),
	"perfbench", "other", "runtime.gc", "runtime.malloc", "runtime.map", "runtime.other")

// cpuTable buckets the runtime/pprof CPU profile at path by layer and
// returns each bucket's share of samples in percent; the Go toolchain's
// pprof prints the profile's symbolized stacks (`go tool pprof -traces`).
// A sample goes to the Go runtime class its stack passes through (GC
// work first, then allocation, then map operations); otherwise to the
// repository module of its innermost repository frame, so a memmove or a
// stdlib call counts against the layer that made it; otherwise to
// runtime.other (scheduler, syscalls) or other.
func cpuTable(path string) (map[string]float64, int, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	counts := map[string]float64{}
	var total float64
	err = eachTrace(text, func(n float64, frames []string) {
		counts[bucket(frames)] += n
		total += n
	})
	if err != nil {
		return nil, 0, err
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = 100 * ratio(counts[b], total)
	}
	return out, int(total), nil
}

// bucket classifies one stack, innermost frame first. The reference
// kernel's map lookups (hostref.go) are the benchmark's own cost, not
// the runtime's on behalf of the system. The kernel is inlined into
// timeRef, and some profiles then omit its frame, so either name counts.
func bucket(frames []string) string {
	if slices.ContainsFunc(frames, func(f string) bool { return f == "main.refKernel" || f == "main.timeRef" }) {
		return "perfbench"
	}
	for _, class := range []struct {
		name     string
		prefixes []string
	}{
		{"runtime.gc", []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMark", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.deductSweepCredit"}},
		{"runtime.malloc", []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice", "runtime.makemap", "runtime.newarray", "runtime.rawstring", "runtime.rawbyteslice"}},
		{"runtime.map", []string{"runtime.map", "internal/runtime/maps.", "runtime.memhash", "runtime.strhash", "runtime.aeshash"}},
	} {
		for _, f := range frames {
			for _, p := range class.prefixes {
				if strings.HasPrefix(f, p) {
					return class.name
				}
			}
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "drftest/internal/"); ok {
			mod := rest[:strings.IndexAny(rest+".", "./")]
			for _, m := range cpuModules {
				if m == mod {
					return m
				}
			}
			return "other"
		}
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "drftest/perfbench.") {
			return "perfbench"
		}
	}
	if len(frames) > 0 && strings.HasPrefix(frames[0], "runtime.") {
		return "runtime.other"
	}
	return "other"
}

// eachTrace calls fn with each stack of `pprof -traces` output: the
// sample count and the function names, innermost first. A stack is a
// block after a "-----+-----" rule; its first line holds the count.
func eachTrace(text []byte, fn func(n float64, frames []string)) error {
	var n float64
	var frames []string
	flush := func() {
		if frames != nil {
			fn(n, frames)
		}
		frames = nil
	}
	inStack := false
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			inStack = true
			continue
		}
		f := strings.Fields(line)
		if !inStack || len(f) == 0 {
			continue
		}
		if frames == nil {
			v, err := strconv.ParseFloat(f[0], 64)
			if err != nil || len(f) < 2 {
				return fmt.Errorf("pprof -traces: unexpected stack line %q", line)
			}
			n, f = v, f[1:]
		}
		frames = append(frames, f[0])
	}
	flush()
	return sc.Err()
}
