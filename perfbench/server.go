package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// stopWait bounds how long a SIGTERM'd server may take to drain and exit
// before it is killed.
const stopWait = 20 * time.Second

// readyWait bounds the wait for a started server to report ready.
const readyWait = 15 * time.Second

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ, 100
// on Linux).
const clockTick = 10 * time.Millisecond

// server is one firstaid-serve process.
type server struct {
	cmd  *exec.Cmd
	url  string
	exit chan struct{} // closed once the process has been reaped

	mu     sync.Mutex
	stdout bytes.Buffer
	stderr bytes.Buffer

	stopOnce sync.Once
	stopErr  error
}

var addrLine = regexp.MustCompile(` on (http://\S+) `)

// startServer execs the server with its shipped defaults plus the
// benchmark's worker count and an ephemeral loopback port, and returns once
// /healthz reports ready. The duration covers exec to ready.
func startServer(ctx context.Context, bin, app string, client *http.Client) (*server, time.Duration, error) {
	cmd := exec.Command(bin, "-app", app, "-workers", strconv.Itoa(workers), "-addr", "127.0.0.1:0")
	s := &server{cmd: cmd, exit: make(chan struct{})}
	cmd.Stderr = &lockedWriter{mu: &s.mu, w: &s.stderr}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if m := addrLine.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
			s.mu.Lock()
			s.stdout.WriteString(line + "\n")
			s.mu.Unlock()
		}
		_ = cmd.Wait() // the exit status is judged from the summary lines
		close(s.exit)
	}()

	deadline := time.NewTimer(readyWait)
	defer deadline.Stop()
	select {
	case s.url = <-addr:
	case <-s.exit:
		return nil, 0, fmt.Errorf("server exited before listening: %s", s.stderrText())
	case <-deadline.C:
		s.stop()
		return nil, 0, errors.New("server printed no listen address")
	case <-ctx.Done():
		s.stop()
		return nil, 0, ctx.Err()
	}
	for {
		var h struct {
			Ready bool `json:"ready"`
		}
		if err := getJSON(ctx, client, s.url+"/healthz", &h); err == nil && h.Ready {
			return s, time.Since(t0), nil
		}
		select {
		case <-time.After(500 * time.Microsecond):
		case <-s.exit:
			return nil, 0, fmt.Errorf("server exited before ready: %s", s.stderrText())
		case <-deadline.C:
			s.stop()
			return nil, 0, errors.New("server not ready in time")
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		}
	}
}

// stop sends SIGTERM, waits up to stopWait for the drain and exit, then
// kills. It returns the server's stdout. Safe to call more than once and
// on every exit path.
func (s *server) stop() (string, error) {
	s.stopOnce.Do(func() {
		if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			s.stopErr = fmt.Errorf("signalling server: %w", err)
		}
		select {
		case <-s.exit:
		case <-time.After(stopWait):
			_ = s.cmd.Process.Kill() // it already failed to stop; the wait below reaps it
			<-s.exit
			s.stopErr = errors.New("server did not exit after SIGTERM; killed")
		}
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stdout.String(), s.stopErr
}

func (s *server) stderrText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.TrimSpace(s.stderr.String())
}

// cpuTime reads the server's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("unparseable /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS reads VmHWM from /proc/<pid>/status, in MiB.
func (s *server) peakRSS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostSteal reads the CPU time the hypervisor gave to other guests, summed
// over this host's CPUs (the steal column of /proc/stat). It explains a
// slow repetition on a shared host; no metric depends on it.
func hostSteal() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64) // 0 on a kernel without the column
	return time.Duration(ticks) * clockTick
}

// summary is the server's SIGTERM report.
type summary struct {
	requests, workers, rerouted, blocked                  int
	failures, recoveries, skipped, patchesMade, activeNow int
}

// parseSummary reads the "fleet:" and "core:" lines the server prints
// after draining.
func parseSummary(stdout string) (summary, error) {
	var s summary
	var fleetOK, coreOK bool
	for _, line := range strings.Split(stdout, "\n") {
		if _, err := fmt.Sscanf(line, "fleet: %d request(s) across %d worker(s); rerouted %d, blocked %d",
			&s.requests, &s.workers, &s.rerouted, &s.blocked); err == nil {
			fleetOK = true
		}
		if _, err := fmt.Sscanf(line, "core: failures %d, recoveries %d, skipped %d, patches made %d, active patches %d",
			&s.failures, &s.recoveries, &s.skipped, &s.patchesMade, &s.activeNow); err == nil {
			coreOK = true
		}
	}
	if !fleetOK || !coreOK {
		return s, fmt.Errorf("no fleet/core summary in server output:\n%s", stdout)
	}
	return s, nil
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// newClient returns the benchmark's HTTP client: at most two connections,
// both kept alive for the whole run.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
