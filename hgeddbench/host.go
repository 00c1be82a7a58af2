package main

import (
	"os"
	"strconv"
	"strings"
)

// hostCPU is the machine-wide CPU time split from /proc/stat, in clock
// ticks. Steal is time the hypervisor ran other guests on this machine's
// virtual CPUs: a run with a high steal share was disturbed by the host.
type hostCPU struct{ total, steal uint64 }

// readHostCPU returns zeros where /proc/stat is unavailable.
func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var c hostCPU
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

func (c hostCPU) stealShareUntil(end hostCPU) float64 {
	return ratio(float64(end.steal-c.steal), float64(end.total-c.total))
}
