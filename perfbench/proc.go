package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicksPerSecond is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// Linux has fixed it at 100 on every architecture Go supports.
const clockTicksPerSecond = 100

// procSample is what the benchmark reads about the server process from
// /proc: CPU time, resident memory and bytes passed to write(2).
type procSample struct {
	CPUTicks uint64 // utime + stime
	RSSKB    uint64 // VmRSS
	WChar    uint64 // bytes written through write(2) and friends, any fd
}

func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	if s.CPUTicks, err = parseStatCPU(stat); err != nil {
		return s, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	if s.RSSKB, err = procField(status, "VmRSS:"); err != nil {
		return s, err
	}
	io, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return s, err
	}
	s.WChar, err = procField(io, "wchar:")
	return s, err
}

// parseStatCPU sums utime and stime, fields 14 and 15 of /proc/<pid>/stat.
// The command name (field 2) may hold spaces, so fields are counted from
// the closing parenthesis.
func parseStatCPU(stat []byte) (uint64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state), so field n is f[n-3].
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return ut + st, nil
}

// procField reads the first number after key in a "key: value" /proc file.
func procField(data []byte, key string) (uint64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseUint(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("proc: no %s field", key)
}
