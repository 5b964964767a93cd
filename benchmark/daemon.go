package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"thematicep/internal/telemetry"
)

// startTimeout bounds exec → "listening"; stopTimeout bounds SIGTERM → exit
// (the daemon's own drain timeout is 5 s).
const (
	startTimeout = 30 * time.Second
	stopTimeout  = 15 * time.Second
)

// daemon is one running thematicd child.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // bound wire address
	metrics string // /metrics host:port
	exited  chan struct{}
	waitErr error
}

// buildDaemon compiles cmd/thematicd from the checkout rooted at root.
func buildDaemon(root, outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "thematicd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/thematicd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build thematicd: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon execs thematicd and returns once it reports its listener.
// Its stderr is appended to logPath.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	// A harness that is killed must not leave daemons behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	for i, a := range args {
		if a == "-metrics" && i+1 < len(args) {
			d.metrics = args[i+1]
		}
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start thematicd: %w", err)
	}
	listening := make(chan string, 1)
	go func() {
		defer close(d.exited)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if rest, ok := strings.CutPrefix(line, "thematicd listening on "); ok {
				select {
				case listening <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr)
		d.waitErr = d.cmd.Wait()
	}()
	select {
	case d.addr = <-listening:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("thematicd %v exited before listening: %v (see %s)", args, d.waitErr, logPath)
	case <-time.After(startTimeout):
		d.kill()
		return nil, fmt.Errorf("thematicd %v: no listener within %s (see %s)", args, startTimeout, logPath)
	}
}

// stop sends SIGTERM (graceful drain, WAL snapshot and seal) and waits.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
		return nil
	case <-time.After(stopTimeout):
		d.kill()
		return fmt.Errorf("thematicd pid %d ignored SIGTERM for %s; killed", d.cmd.Process.Pid, stopTimeout)
	}
}

// kill ends the daemon at once; for set-ups whose state is thrown away.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// cpuTicks is the daemon's user+system CPU so far in clock ticks
// (/proc/<pid>/stat fields 14 and 15).
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// after its closing parenthesis.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line: %q", s)
	}
	return ut + st, nil
}

// msPerTick is the /proc clock tick; USER_HZ is 100 on every Linux this
// runs on.
const msPerTick = 10.0

// peakRSSMB is the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", d.cmd.Process.Pid)
}

// scrape reads the daemon's /metrics from outside and flattens it to one
// number per series name, summing over label sets; label-qualified series
// are also kept under name{k="v",...} for the few the harness tells apart.
type scrape map[string]float64

func (d *daemon) scrape() (scrape, error) {
	resp, err := http.Get("http://" + d.metrics + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", d.metrics, err)
	}
	out := scrape{}
	for _, f := range fams {
		for _, s := range f.Samples {
			if _, bucket := s.Labels["le"]; bucket {
				continue
			}
			out[s.Name] += s.Value
			for k, v := range s.Labels {
				out[fmt.Sprintf("%s{%s=%q}", s.Name, k, v)] += s.Value
			}
		}
	}
	return out, nil
}

// sub returns after-before per series: the activity of the interval between
// two scrapes.
func (after scrape) sub(before scrape) scrape {
	out := scrape{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add sums two scrapes series by series (two daemons of one workload).
func (s scrape) add(o scrape) scrape {
	out := scrape{}
	for k, v := range s {
		out[k] = v
	}
	for k, v := range o {
		out[k] += v
	}
	return out
}
