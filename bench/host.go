package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is a reading of this process's and the host's clocks and
// counters.
type procSnap struct {
	at       time.Time
	cpu      time.Duration // CPU time of this process (user + system)
	mallocs  uint64        // heap allocations of this process so far
	hostBusy time.Duration // CPU time of everything on the host (0 where /proc/stat is missing)
}

func procNow() procSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		hostBusy: hostBusy(),
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostBusy is the CPU time every core of the host has spent not idle,
// from the first line of /proc/stat; 0 where that cannot be read.
func hostBusy() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	// user nice system idle iowait irq softirq steal: everything but
	// idle and iowait is a CPU doing something.
	var ticks int64
	for _, i := range []int{1, 2, 3, 6, 7, 8} {
		n, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0
		}
		ticks += n
	}
	const userHz = 100 // what Linux reports /proc/stat in, whatever HZ is
	return time.Duration(ticks) * time.Second / userHz
}

// otherCPUShare is the CPU time the rest of the host used between two
// readings, per second of wall time: 0 on a quiet host, up to the
// number of cores on a busy one. Kernel threads working on the
// benchmark's behalf (flushes) count as the rest.
func otherCPUShare(a, b procSnap) float64 {
	wall := b.at.Sub(a.at)
	other := (b.hostBusy - a.hostBusy) - (b.cpu - a.cpu)
	if wall <= 0 || other < 0 {
		return 0
	}
	return other.Seconds() / wall.Seconds()
}
