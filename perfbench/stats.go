package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hashjoin"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples)
// and how many samples lie strictly above that rank.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank], len(s) - 1 - rank
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMiB reads VmHWM, the peak resident set, of process pid.
func peakRSSMiB(pid int) (float64, error) { return statusMiB(pid, "VmHWM") }

// statusMiB reads a kB-valued field of /proc/<pid>/status, in MiB.
func statusMiB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s line in /proc/%d/status", field, pid)
}

// resetPeakRSS restarts this process's VmHWM from its current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// host identifies the machine a result was measured on. Without a
// hardware PMU every layer number is a wall clock or a program count.
type host struct {
	CPU         string `json:"cpu"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Go          string `json:"go"`
	PrefetchASM bool   `json:"prefetch_asm"`
	THP         string `json:"thp"`
	PMU         bool   `json:"pmu"`
}

func hostStamp() host {
	h := host{
		CPU:         "unknown",
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Go:          runtime.Version(),
		PrefetchASM: hashjoin.NativeHasPrefetch(),
		THP:         "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled"); err == nil {
		s := string(b)
		if i, j := strings.Index(s, "["), strings.Index(s, "]"); i >= 0 && j > i {
			h.THP = s[i+1 : j]
		}
	}
	_, err := os.Stat("/sys/bus/event_source/devices/cpu")
	h.PMU = err == nil
	return h
}

// readCPUTicks returns the machine-wide CPU time counters of the first
// line of /proc/stat (user, nice, system, idle, iowait, irq, softirq,
// steal, ...), or nil if they cannot be read.
func readCPUTicks() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var ticks []float64
	for _, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		ticks = append(ticks, v)
	}
	return ticks
}

// stealShare is the share of CPU time between two readCPUTicks samples
// that the hypervisor gave to other guests. On a shared host it explains
// a run that is slower than its neighbours; it is printed, not reported.
func stealShare(a, b []float64) float64 {
	const steal = 7 // guest time after it is already counted as user time
	if len(a) <= steal || len(b) != len(a) {
		return 0
	}
	total := 0.0
	for i := 0; i <= steal; i++ {
		total += b[i] - a[i]
	}
	return ratio(b[steal]-a[steal], total)
}
