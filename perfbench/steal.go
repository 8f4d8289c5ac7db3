package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// stealLimit is the share of the machine's CPU time the hypervisor may
// give to other tenants during a window before the window is left out
// of the medians. On a shared virtual machine that share swings from
// nothing to a fifth for tens of seconds at a time; a window it hit
// measures the neighbours, not Ninf.
const stealLimit = 0.03

// Before a timed phase the benchmark waits, for at most maxQuietWait,
// until the host has taken no more than quietLimit of the CPU time over
// the last quietSpan. Steal episodes outlast a run, so dropping windows
// alone cannot keep them out.
const (
	maxQuietWait = 30 * time.Second
	quietSpan    = 3 * time.Second
	quietLimit   = 0.01
)

// awaitQuiet keeps every processor busy, since steal accrues only while
// the machine wants the CPU, until the host has been quiet for
// quietSpan or maxQuietWait has passed. It returns how long it waited.
func awaitQuiet() time.Duration {
	start := time.Now()
	if _, _, ok := hostSteal(); !ok {
		return 0
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for x := uint64(1); !stop.Load(); {
				for j := 0; j < 1<<12; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
		}()
	}
	const tick = 250 * time.Millisecond
	n := int(quietSpan / tick)
	var marks []stealMark
	for time.Since(start) < maxQuietWait {
		var m stealMark
		m.steal, m.total, m.ok = hostSteal()
		marks = append(marks, m)
		if k := len(marks) - 1; k >= n {
			a, b := marks[k-n], marks[k]
			if b.total > a.total && float64(b.steal-a.steal) <= quietLimit*float64(b.total-a.total) {
				break
			}
		}
		time.Sleep(tick)
	}
	stop.Store(true)
	wg.Wait()
	return time.Since(start)
}

// hostSteal returns the machine's cumulative stolen and total CPU time
// in clock ticks, from the first line of /proc/stat. ok is false where
// the kernel does not report steal; every window is then kept.
func hostSteal() (steal, total int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	fields := strings.Fields(string(line))
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already inside user and nice
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}
