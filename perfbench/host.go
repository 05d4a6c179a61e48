package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo records where a result was measured.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	OS         string `json:"os"`
}

func host() hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// procField returns the value of the first "key: value" line of a
// /proc file whose key is key ("" when absent or unreadable).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return "unknown"
}

// rssMB reads one of this process's resident-set figures in MB:
// "VmRSS" is the current size, "VmHWM" the high-water mark. It returns
// 0 where /proc is unavailable.
func rssMB(field string) float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", field), " kB"), 64)
	return kb / 1024
}
