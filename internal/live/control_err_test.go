package live

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// refusedAddr returns an address nothing is listening on: bind an
// ephemeral port, then free it.
func refusedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDialControlRefused pins the absent-server contract: dialing a
// control socket nobody serves fails promptly with a one-line error
// naming the address — no hang, no panic.
func TestDialControlRefused(t *testing.T) {
	addr := refusedAddr(t)
	start := time.Now()
	c, err := DialControl(addr)
	if err == nil {
		c.Close()
		t.Fatal("DialControl to a refused port succeeded")
	}
	if elapsed := time.Since(start); elapsed > DefaultDialTimeout {
		t.Errorf("refused dial took %v, should fail within %v", elapsed, DefaultDialTimeout)
	}
	if !strings.Contains(err.Error(), addr) {
		t.Errorf("error %q does not name the address %s", err, addr)
	}
}

// TestClientServerGoneMidSession pins the mid-session contract: when
// the server drops the connection between requests, the client gets a
// clear "server gone" diagnosis instead of a bare io.EOF.
func TestClientServerGoneMidSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Close() // hang up without answering
	}()
	c, err := DialControl(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Ping()
	if err == nil {
		t.Fatal("ping against a hung-up server succeeded")
	}
	if !strings.Contains(err.Error(), "closed by pfserve") {
		t.Errorf("mid-session hangup surfaced as %q, want a closed-by-pfserve diagnosis", err)
	}
}

// A reply cut off inside its records leaves the stream out of step with
// the protocol, so the client must not read on: the failed read breaks
// it, and every later call returns the same error without touching the
// connection (which would block, or parse frame bytes as a header).
func TestClientBrokenReplyStaysBroken(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		bufio.NewReader(conn).ReadString('\n') // the read request
		reply := []byte("{\"ok\":true,\"n\":3}\n")
		reply = append(binary.BigEndian.AppendUint32(reply, 10), "0123456789"...)
		reply = append(binary.BigEndian.AppendUint32(reply, 10), "01234"...)
		conn.Write(reply) // a record and a half, then hang up
	}()
	c, err := DialControl(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pkts, rerr := c.Read(0, 0, 0)
	if rerr == nil {
		t.Fatalf("truncated reply read back as %d frames", len(pkts))
	}
	if !strings.Contains(rerr.Error(), "closed by pfserve") {
		t.Errorf("truncated reply surfaced as %q, want a closed-by-pfserve diagnosis", rerr)
	}
	done := make(chan error, 1)
	go func() { done <- c.Ping() }()
	select {
	case perr := <-done:
		if perr != rerr {
			t.Errorf("ping after the broken read returned %v, want the read's error %v", perr, rerr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ping on a broken client blocked")
	}
}

// A hang-up that races the client's request reaches it as a reset or a
// broken pipe rather than EOF (TestClientServerGoneMidSession saw the
// reset about one run in fifteen); all three get the same diagnosis.
func TestConnErrResetIsServerGone(t *testing.T) {
	for _, cause := range []error{io.EOF, syscall.ECONNRESET, syscall.EPIPE} {
		err := connErr(&net.OpError{Op: "read", Net: "tcp", Err: os.NewSyscallError("read", cause)})
		if !strings.Contains(err.Error(), "closed by pfserve") {
			t.Errorf("%v surfaced as %q, want a closed-by-pfserve diagnosis", cause, err)
		}
	}
}

// TestRunLoadRefusedControl pins the load driver's absent-server
// behavior: a refused control socket is a prompt, typed error, not a
// drain-timeout hang.
func TestRunLoadRefusedControl(t *testing.T) {
	addr := refusedAddr(t)
	start := time.Now()
	_, err := RunLoad(addr, addr, LoadConfig{Packets: 1, Ports: 1})
	if err == nil {
		t.Fatal("RunLoad against a refused control socket succeeded")
	}
	if !strings.Contains(err.Error(), "control:") {
		t.Errorf("error %q does not identify the control-socket phase", err)
	}
	if elapsed := time.Since(start); elapsed > DefaultDialTimeout {
		t.Errorf("refused RunLoad took %v, should fail within the dial timeout", elapsed)
	}
}
