package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one system-under-test OS process: a home or a vsrd member.
type proc struct {
	name  string
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string
	done  chan struct{}

	// sigterm selects how stop asks for a clean exit: SIGTERM (vsrd)
	// instead of closing stdin (home processes).
	sigterm bool

	mu       sync.Mutex
	finalCPU time.Duration // CPU at exit, read just before it was stopped
	exited   bool
}

// startProc launches bin with args, its stderr in logPath. Stdout lines
// arrive on p.lines. The child is killed if this process dies.
func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logf
	stdin, err := cmd.StdinPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	// lines buffers the few lines a process prints at start-up before
	// anyone reads them; once it is full, further unread lines are
	// dropped rather than letting a chatty child block on its stdout.
	p := &proc{name: name, cmd: cmd, stdin: stdin, lines: make(chan string, 64), done: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
		for sc.Scan() {
			select {
			case p.lines <- sc.Text():
			default:
			}
		}
		_ = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// pid returns the process id.
func (p *proc) pid() int { return p.cmd.Process.Pid }

// readLine waits for the next stdout line.
func (p *proc) readLine(timeout time.Duration) (string, error) {
	select {
	case l := <-p.lines:
		return l, nil
	case <-p.done:
		return "", fmt.Errorf("%s exited", p.name)
	case <-time.After(timeout):
		return "", fmt.Errorf("%s: no output within %v", p.name, timeout)
	}
}

// waitLine waits for a stdout line containing substr and returns it.
func (p *proc) waitLine(substr string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		l, err := p.readLine(time.Until(deadline))
		if err != nil {
			return "", err
		}
		if strings.Contains(l, substr) {
			return l, nil
		}
	}
}

// command sends one control line to a home process and decodes the
// one-line JSON reply into out (nil to discard).
func (p *proc) command(line string, out any) error {
	if _, err := io.WriteString(p.stdin, line+"\n"); err != nil {
		return err
	}
	reply, err := p.readLine(30 * time.Second)
	if err != nil {
		return err
	}
	if out == nil {
		var s string
		if err := json.Unmarshal([]byte(reply), &s); err != nil || s != "ok" {
			return fmt.Errorf("%s: %s: %s", p.name, line, reply)
		}
		return nil
	}
	return json.Unmarshal([]byte(reply), out)
}

// cpu returns the process's user+system CPU so far (its final value
// once stopped).
func (p *proc) cpu() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.exited {
		return p.finalCPU
	}
	return procCPU(p.pid())
}

// markStopping records final CPU before the process is stopped.
func (p *proc) markStopping() {
	c := procCPU(p.pid())
	p.mu.Lock()
	if !p.exited {
		p.finalCPU, p.exited = c, true
	}
	p.mu.Unlock()
}

// kill stops the process with SIGKILL — a crash, no clean shutdown —
// and waits for it to be gone.
func (p *proc) kill() {
	p.markStopping()
	_ = p.cmd.Process.Kill()
	<-p.done
}

// stop asks the process to exit cleanly (stdin EOF for homes, SIGTERM
// for vsrd), killing it if it has not exited within a few seconds.
func (p *proc) stop() {
	p.markStopping()
	if p.sigterm {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	} else {
		_ = p.stdin.Close()
	}
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// procCPU sums the on-CPU time of every thread of pid from
// /proc/<pid>/task/*/schedstat (nanoseconds, unlike the 10ms ticks of
// /proc/<pid>/stat).
func procCPU(pid int) time.Duration {
	dir := "/proc/" + strconv.Itoa(pid) + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			continue
		}
		ns, _ := strconv.ParseInt(f[0], 10, 64)
		total += ns
	}
	return time.Duration(total)
}

// selfCPU is this process's on-CPU time.
func selfCPU() time.Duration { return procCPU(os.Getpid()) }

// peakRSS reads VmHWM of pid in MiB.
func peakRSS(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
