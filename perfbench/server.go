package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running ffwdserve process. Its standard error is read
// line by line into memory, so its log lines (the bound address, the
// trace summary) are seen as soon as they are written.
type proc struct {
	name string
	pid  int
	osp  *os.Process
	done chan struct{} // closed once the process has been reaped

	mu   sync.Mutex
	log  strings.Builder
	addr chan string // the first "listening on" address
}

var (
	liveMu sync.Mutex
	live   = map[*proc]bool{}
)

var reListening = regexp.MustCompile(`listening on ([0-9.]+:[0-9]+)`)

// spawn starts bin with args. The child is killed if this process dies
// (Pdeathsig), and killAll stops every child still running.
func spawn(bin, name string, args ...string) (*proc, error) {
	null, err := os.Open(os.DevNull)
	if err != nil {
		return nil, err
	}
	defer null.Close()
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	attr := &os.ProcAttr{
		Files: []*os.File{null, null, w},
		Sys:   &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL},
	}
	osp, err := os.StartProcess(bin, append([]string{bin}, args...), attr)
	w.Close()
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, pid: osp.Pid, osp: osp, done: make(chan struct{}), addr: make(chan string, 1)}
	liveMu.Lock()
	live[p] = true
	liveMu.Unlock()
	go func() {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if p.log.Len() < 1<<20 {
				p.log.WriteString(line)
				p.log.WriteByte('\n')
			}
			p.mu.Unlock()
			if m := reListening.FindStringSubmatch(line); m != nil && !found {
				found = true
				p.addr <- m[1]
			}
		}
		r.Close()
		osp.Wait()
		liveMu.Lock()
		delete(live, p)
		liveMu.Unlock()
		close(p.done)
	}()
	return p, nil
}

// listenAddr waits for the process to log its bound address.
func (p *proc) listenAddr(timeout time.Duration) (string, error) {
	select {
	case a := <-p.addr:
		return a, nil
	case <-p.done:
		return "", fmt.Errorf("%s exited before listening:\n%s", p.name, p.logText())
	case <-time.After(timeout):
		return "", fmt.Errorf("%s did not report a listen address within %v:\n%s", p.name, timeout, p.logText())
	}
}

func (p *proc) logText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// stop ends the process and waits until it is reaped. A graceful stop
// sends SIGTERM first and waits up to grace before SIGKILL.
func (p *proc) stop(graceful bool, grace time.Duration) {
	if graceful {
		p.osp.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
			return
		case <-time.After(grace):
		}
	}
	p.osp.Kill() // an error means it has already exited
	<-p.done
}

// killAll SIGKILLs every child still running and waits for each.
func killAll() {
	liveMu.Lock()
	ps := make([]*proc, 0, len(live))
	for p := range live {
		ps = append(ps, p)
	}
	liveMu.Unlock()
	for _, p := range ps {
		p.stop(false, 0)
	}
}

// cpuTicks returns the process's user+system CPU time in clock ticks
// (fields 14 and 15 of /proc/<pid>/stat), summed over its threads.
func cpuTicks(pid int) (uint64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// counted from the closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return u + st, nil
}

// hostTicks returns the host-wide CPU time counters of /proc/stat in
// clock ticks: all CPU time, and the part stolen by the hypervisor for
// other guests.
func hostTicks() (total, steal uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// clockTicksPerSec is Linux's USER_HZ, the unit of /proc/<pid>/stat
// CPU times; it is 100 on every mainstream architecture.
const clockTicksPerSec = 100

// cluster is every server process of one workload: the ffwdserve
// leader (or local server) and, for a durable workload, its followers.
type cluster struct {
	dir       string // fresh per cluster: data dirs and the trace file
	procs     []*proc
	leader    *proc
	addr      string // client address
	statsAddr string // traced runs only
	tracePath string
}

// startCluster starts the workload's processes: followers first, then
// the leader pointed at their bound addresses, all with the WAL policy
// fsync. With traced set the leader also captures its delegation trace
// and serves /metrics.
func startCluster(bin, workdir string, w *spec, fsync string, traced bool) (*cluster, error) {
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	capacity := strconv.Itoa(w.Capacity)
	args := []string{"-addr", "127.0.0.1:0", "-proto", w.Proto, "-capacity", capacity}
	if d := w.Durable; d != nil {
		var peers []string
		for i := 1; i <= d.Followers; i++ {
			m, err := c.spawn(bin, fmt.Sprintf("follower%d", i), "-replica-member", "127.0.0.1:0",
				"-data-dir", filepath.Join(dir, fmt.Sprintf("m%d", i)), "-fsync", fsync, "-capacity", capacity)
			if err != nil {
				c.close()
				return nil, err
			}
			a, err := m.listenAddr(30 * time.Second)
			if err != nil {
				c.close()
				return nil, err
			}
			peers = append(peers, a)
		}
		args = append(args, "-data-dir", filepath.Join(dir, "leader"), "-peers", strings.Join(peers, ","), "-fsync", fsync)
	}
	if traced {
		sa, err := freePort()
		if err != nil {
			c.close()
			return nil, err
		}
		c.statsAddr = sa
		c.tracePath = filepath.Join(dir, "server-trace.json")
		args = append(args, "-stats-addr", sa, "-trace", c.tracePath)
	}
	c.leader, err = c.spawn(bin, "server", args...)
	if err != nil {
		c.close()
		return nil, err
	}
	if c.addr, err = c.leader.listenAddr(30 * time.Second); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) spawn(bin, name string, args ...string) (*proc, error) {
	p, err := spawn(bin, name, args...)
	if err == nil {
		c.procs = append(c.procs, p)
	}
	return p, err
}

// cpuTicks sums the CPU time of every process of the cluster.
func (c *cluster) cpuTicks() (uint64, error) {
	var sum uint64
	for _, p := range c.procs {
		t, err := cpuTicks(p.pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// close kills every process of the cluster still running and removes
// the cluster's directory.
func (c *cluster) close() {
	for _, p := range c.procs {
		p.stop(false, 0)
	}
	os.RemoveAll(c.dir)
}

// freePort reserves a loopback address by binding an ephemeral port and
// releasing it; only the traced run's stats endpoint needs one, because
// ffwdserve does not log that listener's bound address.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}
