package main

// Idlers: one lowest-priority spinning child process per CPU, alive for
// the length of a run.  On a virtual machine an idle vCPU halts, and
// waking it costs a trip through the hypervisor: tens of microseconds
// that land on every cross-thread hand-off (the W=1 round trip, the
// simulator's process switches) and that come and go with the host's
// load.  Measured on the 2-vCPU VM this was built on, ten runs of
// serve-bulk read rtt_p50 24-35 us and rtt_p99 106-135 us without
// idlers, 22.5-26 us and 50-68 us with them; sim-receive pps 141-196k
// against 254-290k.  The idlers only ever run when a CPU would
// otherwise halt (nice 19), so they take nothing from the program
// under test; getrusage(RUSAGE_SELF) does not count them.

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// idleFlag is the hidden argument that turns this binary into an idler.
const idleFlag = "-idle-child"

// idleLife bounds an idler's life in case nobody kills it.
const idleLife = 5 * time.Minute

var spinSink uint64

// idleLoop is the idler: spin at the lowest priority until the parent
// goes away or idleLife has passed.  The parent kills it long before.
func idleLoop() {
	runtime.GOMAXPROCS(1)
	_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) // best effort; an unprivileged process may always lower itself
	parent := os.Getppid()
	deadline := time.Now().Add(idleLife)
	for os.Getppid() == parent && time.Now().Before(deadline) {
		for i := 0; i < 1<<24; i++ { // a few milliseconds between checks
			spinSink++
		}
	}
}

// startIdlers starts one idler per CPU and returns the function that
// stops them and waits until each has ended.  A failure to start one is
// reported and the run goes on without it.
func startIdlers(stderr io.Writer) (stop func()) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: no idlers: %v\n", err)
		return func() {}
	}
	var cmds []*exec.Cmd
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, idleFlag)
		// The kernel kills the idler if this process dies without
		// stopping it; the idler also watches its parent id itself.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(stderr, "benchmark: idler %d: %v\n", i, err)
			continue
		}
		cmds = append(cmds, cmd)
	}
	return func() {
		for _, cmd := range cmds {
			_ = cmd.Process.Kill() // already gone is fine
		}
		for _, cmd := range cmds {
			_ = cmd.Wait() // "signal: killed" is the expected end
		}
	}
}
