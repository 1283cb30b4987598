package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of the CPU fields of
// /proc/<pid>/stat; it is 100 on every Linux the Go toolchain supports.
const clockTick = 10 * time.Millisecond

// parseProcStat extracts user+system CPU time from one /proc/<pid>/stat
// line. The second field is the command name in parentheses and may itself
// hold spaces and parentheses, so fields are counted from the last ')':
// utime and stime are fields 14 and 15 of the line.
func parseProcStat(line string) (time.Duration, error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", line)
	}
	fields := strings.Fields(line[end+1:])
	// fields[0] is field 3 (state), so utime and stime sit at 11 and 12.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procCPU is the CPU time process pid has used so far.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(raw))
}

// selfCPU is the CPU time this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSample is the Go runtime's allocation and GC state at one instant.
type heapSample struct{ objects, bytes, cycles uint64 }

func readHeap() heapSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return heapSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// stopwatch accumulates wall time, this process's CPU time and its heap
// activity over the timed sections of an in-process workload; whatever runs
// between stop and the next start (verification) is left out.
type stopwatch struct {
	wall, cpu time.Duration
	heap      heapSample

	t0    time.Time
	cpu0  time.Duration
	heap0 heapSample
}

func (s *stopwatch) start() {
	s.heap0 = readHeap()
	s.cpu0 = selfCPU()
	s.t0 = time.Now()
}

// stop closes the section start opened and returns its wall time.
func (s *stopwatch) stop() time.Duration {
	d := time.Since(s.t0)
	s.wall += d
	s.cpu += selfCPU() - s.cpu0
	h := readHeap()
	s.heap.objects += h.objects - s.heap0.objects
	s.heap.bytes += h.bytes - s.heap0.bytes
	s.heap.cycles += h.cycles - s.heap0.cycles
	return d
}

// heapMetrics reports the stopwatch's heap activity per op.
func (s *stopwatch) heapMetrics(m map[string]float64, ops int) {
	m["go.allocs_per_op"] = ratio(float64(s.heap.objects), float64(ops))
	m["go.alloc_kb_per_op"] = ratio(float64(s.heap.bytes)/1024, float64(ops))
	m["go.gc_cycles"] = float64(s.heap.cycles)
}

// environment is the header every run prints first: what the numbers were
// measured on.
func environment(o options) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": o.procs,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"quick":      o.quick,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out commit, "unknown" outside a git repository
// (the driver's checkouts are plain directories).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(out))
}
