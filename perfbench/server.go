package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one ccsd -serve process started by the benchmark.
type server struct {
	cmd     *exec.Cmd
	addr    string
	nice    int           // ccsd's niceness, read back from /proc
	done    chan struct{} // closed once stdout reached EOF
	summary string        // ccsd's shutdown counter line
}

// startServer launches ccsd -serve on a loopback port and returns once
// it listens, with the time from launch to ready. The process dies with
// the benchmark (SIGKILL on parent death) even if stop is never reached.
// ccsd runs at the benchmark's own niceness, which the result's stamp
// records as read back from /proc.
func startServer(bin string, extra ...string) (*server, time.Duration, error) {
	args := append([]string{"-serve", "-listen", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start ccsd: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	sc := bufio.NewScanner(out)
	const banner = "serving solves on "
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, banner) {
			s.addr = strings.Fields(strings.TrimPrefix(line, banner))[0]
			break
		}
	}
	ready := time.Since(start)
	if s.addr == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, 0, errors.New("ccsd exited before listening")
	}
	if s.nice, err = procNice(s.pid()); err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, 0, err
	}
	go func() {
		defer close(s.done)
		for sc.Scan() {
			s.summary = sc.Text()
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	return s, ready, nil
}

// stop asks ccsd to drain and exit, killing it if it has not exited
// within ten seconds, and waits for the process to end.
func (s *server) stop() {
	if s == nil || s.cmd.ProcessState != nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	_ = s.cmd.Wait()
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux platform Go supports.
const clockTicks = 100

// procStat returns the fields of /proc/<pid>/stat after the
// parenthesized command name: f[0] is field 3 of the whole line.
func procStat(pid int) ([]string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil, err
	}
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+2:]))
	if len(f) < 17 {
		return nil, fmt.Errorf("short /proc/%d/stat", pid)
	}
	return f, nil
}

// procCPUSeconds reads the user+system CPU time of process pid (fields
// 14 and 15 of its stat line).
func procCPUSeconds(pid int) (float64, error) {
	f, err := procStat(pid)
	if err != nil {
		return 0, err
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// procNice reads the niceness of process pid (field 19 of its stat line).
func procNice(pid int) (int, error) {
	f, err := procStat(pid)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(f[16])
}

// procPeakRSSMB reads the peak resident set (VmHWM) of process pid.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// hostTicks reads the machine's busy and stolen CPU time from the first
// line of /proc/stat, in clock ticks. Steal is time the hypervisor ran
// something else while a virtual CPU wanted to run; busy is every tick
// that was not idle or waiting for I/O, steal included.
func hostTicks() (busy, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat")
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, err
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			steal = v
			busy += v
		default:
			busy += v
		}
	}
	return busy, steal, nil
}

// stealMeter measures how much of the time the machine's virtual CPUs
// wanted to run the hypervisor stole from them between start and
// share. A CPU-bound thread that wanted the CPU for wall time t ran for
// t·(1 − share) of it.
type stealMeter struct{ busy, steal float64 }

func startSteal() stealMeter {
	b, s, _ := hostTicks()
	return stealMeter{b, s}
}

func (m stealMeter) share() float64 {
	b, s, err := hostTicks()
	if err != nil || b <= m.busy {
		return 0
	}
	return (s - m.steal) / (b - m.busy)
}
