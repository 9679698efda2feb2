package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs in a virtual machine whose physical CPUs other
// guests share. For minutes at a time the hypervisor runs them instead,
// and the guest kernel counts the time taken away as steal; a 2-vCPU
// host spent up to a quarter of its CPU time stolen for several runs in a
// row, and ops slowed by as much. A run cannot outlast such a phase, so
// the benchmark reads the kernel's steal counter at window boundaries
// (every set-up, and at least every windowLen of ops) and reports each
// time scaled by the share of CPU time the guest kept in its window:
//
//	reported = measured × (1 − steal / (CPUs × wall))
//
// The kernel spreads steal over every CPU, so this is the share any
// running thread lost, whatever the op's parallelism. Only time the host
// took away is removed; a slower program reads slower by the same ratio.
// Each run prints the measured values and the kept share beside the
// JSON line. Where the counter cannot be read the share is 1.

// windowLen is the least length of a window of ops.
const windowLen = 500 * time.Millisecond

// userHZ is the unit of /proc/stat's counters: USER_HZ, which Linux
// fixes at 100 ticks a second on every architecture it exports it for.
const userHZ = 100

// readStat returns the number of CPUs /proc/stat lists and the steal
// counter of its summary line, summed over every CPU, in CPU seconds; or
// zeros when it cannot be read.
func readStat() (cpus int, steal float64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0 || !strings.HasPrefix(fields[0], "cpu"):
		case fields[0] == "cpu":
			// cpu user nice system idle iowait irq softirq steal ...
			if len(fields) < 9 {
				return 0, 0
			}
			ticks, err := strconv.ParseUint(fields[8], 10, 64)
			if err != nil {
				return 0, 0
			}
			steal = float64(ticks) / userHZ
		default:
			cpus++
		}
	}
	return cpus, steal
}

// mark is one reading at a window boundary.
type mark struct {
	at    time.Time
	steal float64
}

// hostTime splits a pass into windows and knows the share of CPU time
// the guest kept in each.
type hostTime struct {
	cpus  int // CPUs the steal counter sums over; 0 when it cannot be read
	marks []mark
}

// mark closes the current window and opens the next; it returns the
// new window's index.
func (h *hostTime) mark() int {
	m := mark{at: time.Now()}
	if h.cpus > 0 {
		_, m.steal = readStat()
	}
	h.marks = append(h.marks, m)
	return len(h.marks) - 1
}

// kept is the share of CPU time the guest kept between marks a and b.
func (h *hostTime) kept(a, b int) float64 {
	return keptShare(h.marks[a], h.marks[b], h.cpus)
}

func keptShare(a, b mark, cpus int) float64 {
	wall := b.at.Sub(a.at).Seconds()
	if cpus == 0 || wall <= 0 {
		return 1
	}
	// A counter tick late or early can make a short window's share
	// stray past its range.
	return min(1, max(0.05, 1-(b.steal-a.steal)/(float64(cpus)*wall)))
}
