package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// cpuStat is the aggregate line of /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal uint64
	ok           bool
}

// readCPUStat reads the host-wide CPU counters; ok is false where
// /proc/stat is unavailable.
func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var s cpuStat
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user time.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	s.ok = true
	return s
}

// stealPct returns the share of host CPU time stolen by the hypervisor
// between two readings, in percent.
func stealPct(a, b cpuStat) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSSMB returns the process's peak resident memory (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// resetPeakRSS resets the process's peak-RSS mark to its current
// resident memory.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak spans the whole run
}
