package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
)

// resetPeakRSS starts a new high-water interval: writing 5 to
// /proc/self/clear_refs resets the kernel's VmHWM to the current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the process's resident set size high-water mark in
// bytes since the last resetPeakRSS, as the kernel keeps it in VmHWM.
func peakRSS() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest) // "<n> kB"
			if len(f) != 2 {
				break
			}
			kb, err := strconv.ParseInt(string(f[0]), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("/proc/self/status: no VmHWM line")
}
