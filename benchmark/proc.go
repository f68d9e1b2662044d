//go:build linux

package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; it is 100 on
// every Linux this runs on (sysconf(_SC_CLK_TCK) needs cgo).
const clockTick = 100

// procTimes is one reading of a process's accounting from /proc/<pid>/stat.
type procTimes struct {
	userUs, sysUs float64
	minflt        float64
}

func readProcTimes(pid int) (procTimes, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procTimes{}, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from the closing parenthesis.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return procTimes{}, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	num := func(i int) float64 { v, _ := strconv.ParseFloat(f[i], 64); return v }
	// After the name: state(0) ppid pgrp session tty tpgid flags minflt(7)
	// cminflt majflt cmajflt utime(11) stime(12).
	return procTimes{
		userUs: num(11) * 1e6 / clockTick,
		sysUs:  num(12) * 1e6 / clockTick,
		minflt: num(7),
	}, nil
}

// readCPUUs is the CPU time a process has used so far, summed over its
// threads from /proc/<pid>/task/*/schedstat: nanosecond accounting, where
// the utime+stime of /proc/<pid>/stat is sampled at 100 Hz and would make a
// one-second window's cost jump by whole percents. It falls back to those
// ticks where the kernel keeps no schedstat.
func readCPUUs(pid int) (float64, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	ns, seen := 0.0, false
	for _, t := range tasks {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread exited between the two reads
		}
		if f := strings.Fields(string(raw)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				ns, seen = ns+v, true
			}
		}
	}
	if seen {
		return ns / 1e3, nil
	}
	pt, err := readProcTimes(pid)
	return pt.userUs + pt.sysUs, err
}

// readStatusKB returns a "VmRSS"-style kB field of /proc/<pid>/status.
func readStatusKB(pid int, key string) (float64, bool) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, key+":") {
			f := strings.Fields(line[len(key)+1:])
			if len(f) > 0 {
				v, err := strconv.ParseFloat(f[0], 64)
				return v, err == nil
			}
		}
	}
	return 0, false
}

// stealMs is the host-wide involuntary wait (hypervisor steal) so far.
func stealMs() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v * 1000 / clockTick
}

func selfCPUUs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	us := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return us(ru.Utime) + us(ru.Stime)
}

var calibSink []byte

// calibrate times a fixed CPU+allocation kernel. It only flags a run as
// disturbed when the machine's speed moved during it; no metric is ever
// normalised by it.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for round := 0; round < 40; round++ {
		buf := make([]byte, 256<<10)
		for i := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[i] = byte(x)
		}
		calibSink = buf
	}
	return float64(time.Since(start)) / 1e6
}

// stamp identifies the machine and the run; every record carries it.
type stamp struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataDir    string `json:"data_dir"`
	DataFS     string `json:"data_fs"`
	Commit     string `json:"git_commit"`
}

func makeStamp(dataDir string) stamp {
	st := stamp{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		DataDir:    dataDir,
		DataFS:     fsType(dataDir),
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(raw))
	}
	// The acceptance checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	return st
}

// fsType names the filesystem holding dir from its statfs magic: on tmpfs
// fsync is nearly free, so durable workloads must say where they ran.
func fsType(dir string) string {
	var sf syscall.Statfs_t
	if err := syscall.Statfs(dir, &sf); err != nil {
		return "unknown"
	}
	switch uint32(sf.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(sf.Type))
}
