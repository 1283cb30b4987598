package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"appfit/internal/serve"
	"appfit/internal/serve/httpapi"
	"appfit/internal/sweep"
)

// serveTenants is the tenant set of both service workloads: two tenants
// with a 3:1 DRR weight split, no rate limit, default queue caps.
const serveTenants = "heavy=3,light=1"

// buildDaemon compiles cmd/appfitd into .bench_build/bin and returns the
// binary's path and how long the build took. The path is stable, so a run
// after the first finds the binary up to date and go build only checks it.
func buildDaemon(ctx context.Context) (string, float64, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", "appfitd"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "appfit/cmd/appfitd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build appfitd: %w\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// target is one running service under test: the exec'd appfitd, or (for
// -quick and for boundary replay) the same handler over the same server
// wiring inside this process.
type target struct {
	base string

	// The exec'd daemon.
	cmd    *exec.Cmd
	stderr bytes.Buffer
	waited chan struct{} // closed once cmd.Wait returned
	exit   error

	// The in-process server.
	srv *serve.Server
	hs  *http.Server
}

// startDaemon boots appfitd on a free loopback port, parses the address from
// its "listening on" line and waits for /healthz. The caller owns the
// returned target and must stop or kill it on every path.
func startDaemon(ctx context.Context, bin string, procs int) (*target, error) {
	t := &target{waited: make(chan struct{})}
	t.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-tenants", serveTenants, "-workers", strconv.Itoa(procs))
	t.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	t.cmd.Stderr = &t.stderr
	// If this process dies without running its deferred kill (a panic on
	// another goroutine, SIGKILL), the kernel takes the child down too.
	t.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := t.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := t.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start appfitd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		// Reads to EOF so the daemon never blocks on a full pipe, then
		// reaps it: Wait must not run before the pipe is drained.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "appfitd: listening on "); ok {
				select {
				case addr <- rest:
				default:
				}
			}
		}
		t.exit = t.cmd.Wait()
		close(t.waited)
	}()
	select {
	case t.base = <-addr:
	case <-t.waited:
		return nil, fmt.Errorf("appfitd exited on start-up: %v\n%s", t.exit, t.stderr.String())
	case <-time.After(20 * time.Second):
		t.kill()
		return nil, errors.New("appfitd never printed its listen address")
	case <-ctx.Done():
		t.kill()
		return nil, ctx.Err()
	}
	if err := t.waitHealthy(ctx); err != nil {
		t.kill()
		return nil, err
	}
	return t, nil
}

// startInProcess serves the wiring cmd/appfitd uses — httpapi.NewHandler
// over serve.New over a fresh engine — from this process on a loopback port.
func startInProcess(ctx context.Context, workers int) (*target, error) {
	srv, err := newServer(workers)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &target{base: "http://" + ln.Addr().String(), srv: srv, hs: &http.Server{Handler: httpapi.NewHandler(srv)}}
	go t.hs.Serve(ln) // returns ErrServerClosed once stop or kill shuts it down
	if err := t.waitHealthy(ctx); err != nil {
		t.kill()
		return nil, err
	}
	return t, nil
}

// newServer is the service as appfitd configures it: the benchmark's two
// tenants, the default cache, workers service workers.
func newServer(workers int) (*serve.Server, error) {
	tenants, err := serve.ParseTenants(serveTenants)
	if err != nil {
		return nil, err
	}
	return serve.New(serve.Options{
		Tenants:       tenants,
		EngineOptions: sweep.Options{Workers: workers},
		Workers:       workers,
	})
}

func (t *target) client() *httpapi.Client {
	return &httpapi.Client{Base: t.base, HTTP: &http.Client{Timeout: time.Minute}}
}

func (t *target) waitHealthy(ctx context.Context) error {
	cl := t.client()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if cl.Healthy(ctx) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("service at %s never became healthy", t.base)
}

// cpu is the CPU time the service process has used: the daemon's from
// /proc, this process's own for the in-process server.
func (t *target) cpu() time.Duration {
	if t.cmd == nil {
		return selfCPU()
	}
	d, err := procCPU(t.cmd.Process.Pid)
	if err != nil {
		return 0
	}
	return d
}

// stop shuts the service down the way an operator would and checks that it
// went cleanly: SIGTERM, exit status 0, the final-accounting line on
// standard error (appfitd itself exits non-zero when the drain times out or
// its admission books do not balance). It returns the daemon's peak
// resident set in MB. Any error charges the whole workload as failed.
func (t *target) stop() (peakRSSMB float64, err error) {
	if t.cmd == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := errors.Join(t.srv.Drain(ctx), t.hs.Shutdown(ctx))
		return 0, errors.Join(err, t.srv.Stats().Accounting())
	}
	if err := t.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.kill()
		return 0, fmt.Errorf("signal appfitd: %w", err)
	}
	select {
	case <-t.waited:
	case <-time.After(60 * time.Second):
		t.kill()
		return 0, errors.New("appfitd did not exit within 60 s of SIGTERM")
	}
	if t.exit != nil {
		return 0, fmt.Errorf("appfitd: %w\n%s", t.exit, t.stderr.String())
	}
	if !strings.Contains(t.stderr.String(), "final accounting") {
		return 0, fmt.Errorf("appfitd exited without its final accounting:\n%s", t.stderr.String())
	}
	if ru, ok := t.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return peakRSSMB, nil
}

// kill ends the service at once and waits for it; safe after stop and safe
// to call twice. Workloads defer it so no path leaks a process or a port.
func (t *target) kill() {
	if t.cmd == nil {
		t.hs.Close()
		return
	}
	_ = t.cmd.Process.Kill() // fails only if the daemon already exited
	<-t.waited
}
