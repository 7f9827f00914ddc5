package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"nazar/internal/httpapi"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// The world nazard builds with its default flags. Devices must share it
// (as cmd/nazar-device requires), so these are not workload parameters.
const (
	worldClasses = 24
	worldSeed    = 42
)

func newWorld() *imagesim.World {
	return imagesim.NewWorld(imagesim.DefaultConfig(worldClasses, worldSeed))
}

// emptyNet returns an untrained network with the base topology, the
// target of a base pull.
func emptyNet(world *imagesim.World) *nn.Network {
	return nn.NewClassifier(nn.ArchResNet50, world.Dim(), worldClasses, tensor.NewRand(1, 1))
}

// pullBase is the fleet's base pull: GET /v1/base applied to a local
// network of the shared topology.
func pullBase(ctx context.Context, api *httpapi.Client, world *imagesim.World) (*nn.Network, error) {
	snap, err := api.BaseContext(ctx)
	if err != nil {
		return nil, err
	}
	net := emptyNet(world)
	if err := snap.ApplyTo(net); err != nil {
		return nil, fmt.Errorf("base model mismatch: %w", err)
	}
	return net, nil
}

// child is one nazard process serving on loopback with its WAL in a
// temporary directory under the work dir.
type child struct {
	cmd  *exec.Cmd
	url  string
	dir  string
	done chan struct{}
	err  error

	stopOnce sync.Once
}

var (
	childrenMu sync.Mutex
	children   = map[*child]bool{}
)

// stopAllChildren stops every nazard still running (signal and fatal
// paths).
func stopAllChildren() {
	childrenMu.Lock()
	cs := make([]*child, 0, len(children))
	for c := range children {
		cs = append(cs, c)
	}
	childrenMu.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// freeAddr returns a loopback address that was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startNazard execs nazard and returns once GET /v1/status answers and
// the base model has been pulled. The returned duration is the set-up
// time: exec until status answers, plus the base pull.
func startNazard(o options, world *imagesim.World) (*child, time.Duration, *nn.Network, error) {
	dir, err := os.MkdirTemp(o.workDir, "nazard-")
	if err != nil {
		return nil, 0, nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "nazard.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, nil, err
	}
	defer logf.Close()
	cmd := exec.Command(o.nazard, "-addr", addr, "-wal-dir", filepath.Join(dir, "wal"))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with this process even if it is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd, url: "http://" + addr, dir: dir, done: make(chan struct{})}

	start := time.Now()
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, 0, nil, fmt.Errorf("start nazard: %w", err)
	}
	childrenMu.Lock()
	children[c] = true
	childrenMu.Unlock()
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()

	api := httpapi.NewClient(c.url)
	api.HTTP = &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for {
		if _, err := api.Status(); err == nil {
			break
		}
		select {
		case <-c.done:
			log := c.logTail()
			c.stop()
			return nil, 0, nil, fmt.Errorf("nazard exited during start-up (%v): %s", c.err, log)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, 0, nil, fmt.Errorf("nazard not ready after 120s")
		}
	}
	base, err := pullBase(context.Background(), httpapi.NewClient(c.url), world)
	if err != nil {
		c.stop()
		return nil, 0, nil, fmt.Errorf("base pull: %w", err)
	}
	return c, time.Since(start), base, nil
}

// logTail returns the end of the child's log for error messages.
func (c *child) logTail() string {
	b, _ := os.ReadFile(filepath.Join(c.dir, "nazard.log"))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// stop sends SIGTERM (nazard drains and closes its WAL), escalates to
// SIGKILL after 20s, waits for the process and removes its directory.
func (c *child) stop() {
	c.stopOnce.Do(func() {
		select {
		case <-c.done:
		default:
			_ = c.cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-c.done:
			case <-time.After(20 * time.Second):
				_ = c.cmd.Process.Kill()
				<-c.done
			}
		}
		os.RemoveAll(c.dir)
		childrenMu.Lock()
		delete(children, c)
		childrenMu.Unlock()
	})
}

// procProbe reads a process's CPU time and peak RSS from /proc.
type procProbe struct{ pid int }

// clockTicks is the kernel's USER_HZ, 100 on every Linux platform Go
// supports.
const clockTicks = 100

// cpuSeconds returns utime+stime.
func (p procProbe) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", p.pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", p.pid)
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMiB returns VmHWM.
func (p procProbe) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.pid)
}

// promValues is a parsed Prometheus text exposition keyed by the sample
// as written, e.g. `nazar_window_stage_seconds_sum{stage="rca"}`.
type promValues map[string]float64

// scrape fetches and parses GET /metrics.
func scrape(url string) (promValues, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promValues, error) {
	out := promValues{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every sample of a family whose key starts with prefix.
func (p promValues) sum(prefix string) float64 {
	var s float64
	for k, v := range p {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			s += v
		}
	}
	return s
}

// hostCPU returns the host's steal and total CPU ticks from /proc/stat.
// Steal is time the hypervisor gave the vCPUs to someone else; a run with
// much of it measured a slower machine.
func hostCPU() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
