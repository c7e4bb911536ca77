package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// Steal correction. On a shared VM the hypervisor takes the CPUs away
// from time to time, and how much it takes changes by the minute with
// the neighbours' load. The kernel counts that time as steal. Every
// timing the benchmark reports is the wall time minus the CPU time
// stolen meanwhile, averaged over the CPUs: about how long the interval
// would have taken on a host of its own. Interference the kernel does
// not count, such as a neighbour on the same core, stays in the numbers.

// userHZ is the unit of the CPU times in /proc/stat: USER_HZ, 100 ticks
// a second on the platforms Go supports.
const userHZ = 100

// stolen returns the CPU time the hypervisor has taken from this
// machine since boot, averaged over its CPUs, from the steal column of
// /proc/stat. It is 0 where the kernel reports none.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return parseSteal(string(b))
}

// parseSteal returns the steal time per CPU in the text of /proc/stat:
// the eighth value of the "cpu" line, which sums the "cpuN" lines,
// divided by their number.
func parseSteal(stat string) time.Duration {
	var total, cpus int64
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		if f[0] != "cpu" {
			cpus++
			continue
		}
		var err error
		if total, err = strconv.ParseInt(f[8], 10, 64); err != nil {
			return 0
		}
	}
	if cpus == 0 {
		return 0
	}
	return time.Duration(total) * time.Second / userHZ / time.Duration(cpus)
}

// watch times one interval.
type watch struct {
	start  time.Time
	stolen time.Duration
}

func startWatch() watch { return watch{time.Now(), stolen()} }

// stop returns the wall time since the watch started and the part of it
// the CPUs ran: the wall time minus the CPU time stolen meanwhile.
func (w watch) stop() (wall, ran time.Duration) {
	wall = time.Since(w.start)
	ran = wall - (stolen() - w.stolen)
	if ran <= 0 { // only tick rounding on a very short interval gets here
		ran = wall
	}
	return wall, ran
}
