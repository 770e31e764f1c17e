package live

// The control socket: pfserve's user-space API, standing in for the
// /dev/pf character device the paper's processes open.  Requests are
// JSON lines over TCP, one object per line, with the filter ioctl
// payload carried in the same binary layout filter.Filter.MarshalBinary
// defines (the on-the-wire/ioctl encoding the simulated device's
// SetFilter models).
//
// Ops:
//
//	{"op":"ping"}
//	{"op":"open","queue_limit":N,"copy_all":b,"stamp":b}      -> {"port":id}
//	{"op":"setfilter","port":id,"filter":<base64 binary>}
//	{"op":"read","port":id,"max":N,"timeout_ms":T}            -> {"n":K} + K records
//	{"op":"close","port":id}
//	{"op":"stats"}                                            -> {"stats":{...}}
//
// Every reply starts with one JSON header line; only a read reply
// carrying packets is followed by binary records, the way read(2) on
// the paper's device hands back raw frames:
//
//	reply  = header "\n" record*K
//	header = {"ok":true,"port":id,"drops":D,"n":K}   (zero fields omitted)
//	record = length:uint32 big-endian, then length frame bytes
//
// K is at most maxReplyFrames and a length at most maxDatagram; the
// client rejects anything larger before allocating for it.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/filter"
	"repro/internal/pfdev"
	"repro/internal/trace"
)

// Request is one control-socket command.
type Request struct {
	Op         string `json:"op"`
	Port       int    `json:"port,omitempty"`
	QueueLimit int    `json:"queue_limit,omitempty"`
	CopyAll    bool   `json:"copy_all,omitempty"`
	Stamp      bool   `json:"stamp,omitempty"`
	Filter     []byte `json:"filter,omitempty"` // filter.Filter binary encoding
	Max        int    `json:"max,omitempty"`
	TimeoutMS  int64  `json:"timeout_ms,omitempty"` // 0 = non-blocking read
}

// Response is the reply to one Request.
type Response struct {
	OK      bool         `json:"ok"`
	Err     string       `json:"err,omitempty"`
	Port    int          `json:"port,omitempty"`
	Packets [][]byte     `json:"-"`               // read: sent as binary records after the header
	Drops   uint64       `json:"drops,omitempty"` // port overflow drops up to the last packet
	Stats   *StatsReport `json:"stats,omitempty"`
}

// replyHeader is a reply's JSON line: the Response plus N, the count
// of binary records that follow it.
type replyHeader struct {
	Response
	N int `json:"n,omitempty"`
}

// maxReplyFrames bounds the records in one read reply; the server
// returns at most this many frames per read and the client refuses a
// header promising more.
const maxReplyFrames = 1 << 14

// ctlBufSize is both ends' read buffer: a JSON line up to this long is
// parsed in place, and it holds any one record (maxDatagram) whole.
const ctlBufSize = 1 << 20

// SpanSummary is the provenance roll-up exposed over the control
// socket: the flight recorder's aggregate accounting plus the drop
// taxonomy and the origin-to-read latency percentiles.
type SpanSummary struct {
	Created         uint64            `json:"created"`
	DeliveredUser   uint64            `json:"delivered_user"`
	DeliveredKernel uint64            `json:"delivered_kernel"`
	TotalDrops      uint64            `json:"total_drops"`
	Live            uint64            `json:"live"`
	Drops           map[string]uint64 `json:"drops,omitempty"`
	TotalMean       time.Duration     `json:"total_mean_ns"`
	TotalP50        time.Duration     `json:"total_p50_ns"`
	TotalP99        time.Duration     `json:"total_p99_ns"`
}

// StageLatency is one receive-path stage's latency summary.
type StageLatency struct {
	Stage string        `json:"stage"`
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// StatsReport is the full statistics block served by the "stats" op.
type StatsReport struct {
	Ports  []pfdev.PortStats `json:"ports"`
	Gov    *pfdev.GovStats   `json:"gov,omitempty"`
	Device Counts            `json:"device"`
	Wire   *WireStats        `json:"wire,omitempty"`
	Spans  *SpanSummary      `json:"spans,omitempty"`
	Stages []StageLatency    `json:"stages,omitempty"`
}

// Server serves the control protocol for one live device.
type Server struct {
	dev  *Device
	wire *Wire
	ln   net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  chan struct{}
}

// Serve starts accepting control connections on ln for dev.  wire may
// be nil (stats then omit the wire block).
func Serve(ln net.Listener, dev *Device, wire *Wire) *Server {
	s := &Server{dev: dev, wire: wire, ln: ln,
		conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the accept loop and closes every live connection.
func (s *Server) Close() {
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-s.done
}

func (s *Server) acceptLoop() {
	defer close(s.done)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, ctlBufSize)
	bw := bufio.NewWriter(conn)
	dec := json.NewDecoder(br)
	enc := json.NewEncoder(bw)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := s.handle(req)
		if err := enc.Encode(replyHeader{resp, len(resp.Packets)}); err != nil {
			return
		}
		var prefix [4]byte // write errors stick in bw; Flush reports them
		for _, p := range resp.Packets {
			binary.BigEndian.PutUint32(prefix[:], uint32(len(p)))
			bw.Write(prefix[:])
			bw.Write(p)
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func fail(format string, args ...any) Response {
	return Response{Err: fmt.Sprintf(format, args...)}
}

func (s *Server) handle(req Request) Response {
	switch req.Op {
	case "ping":
		return Response{OK: true}

	case "open":
		port := s.dev.Open()
		if req.QueueLimit > 0 {
			port.SetQueueLimit(req.QueueLimit)
		}
		if req.CopyAll {
			port.SetCopyAll(true)
		}
		if req.Stamp {
			port.SetStamp(true)
		}
		return Response{OK: true, Port: port.ID()}

	case "setfilter":
		port := s.dev.Port(req.Port)
		if port == nil {
			return fail("no such port %d", req.Port)
		}
		var f filter.Filter
		if err := f.UnmarshalBinary(req.Filter); err != nil {
			return fail("bad filter: %v", err)
		}
		if err := port.SetFilter(f); err != nil {
			return fail("setfilter: %v", err)
		}
		return Response{OK: true, Port: port.ID()}

	case "read":
		port := s.dev.Port(req.Port)
		if port == nil {
			return fail("no such port %d", req.Port)
		}
		timeout := time.Duration(-1) // default non-blocking
		if req.TimeoutMS > 0 {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
		limit := req.Max
		if limit <= 0 || limit > maxReplyFrames {
			limit = maxReplyFrames
		}
		pkts, err := port.ReadBatch(limit, timeout)
		switch err {
		case nil:
		case ErrTimeout, ErrWouldBlock:
			return Response{OK: true} // empty read, not an error
		default:
			return fail("read: %v", err)
		}
		resp := Response{OK: true, Port: port.ID(), Packets: make([][]byte, len(pkts))}
		for i, p := range pkts {
			resp.Packets[i] = p.Data
			resp.Drops = p.Drops
		}
		return resp

	case "close":
		port := s.dev.Port(req.Port)
		if port == nil {
			return fail("no such port %d", req.Port)
		}
		port.Close()
		return Response{OK: true}

	case "stats":
		return Response{OK: true, Stats: s.statsReport()}

	default:
		return fail("unknown op %q", req.Op)
	}
}

// statsReport assembles the full statistics block.
func (s *Server) statsReport() *StatsReport {
	rep := &StatsReport{
		Ports:  s.dev.PortStats(),
		Device: s.dev.Counts(),
	}
	if s.dev.opt.Gov.Enabled {
		gs := s.dev.GovStats()
		rep.Gov = &gs
	}
	if s.wire != nil {
		ws := s.wire.Stats()
		rep.Wire = &ws
	}
	// Span and histogram reads are serialized with packet processing
	// under the device mutex, the same exclusion the simulator's
	// single-threaded loop provides.
	s.dev.mu.Lock()
	defer s.dev.mu.Unlock()
	tr := s.dev.tr
	if tr == nil {
		return rep
	}
	if sp := tr.Spans(); sp != nil {
		sum := &SpanSummary{
			Created:         sp.Created,
			DeliveredUser:   sp.DeliveredUser,
			DeliveredKernel: sp.DeliveredKernel,
			TotalDrops:      sp.TotalDrops(),
			Live:            sp.Live(),
			Drops:           make(map[string]uint64),
		}
		for i, n := range sp.Drops {
			if n > 0 {
				sum.Drops[trace.DropReason(i).String()] = n
			}
		}
		h := sp.Total()
		sum.TotalMean, sum.TotalP50, sum.TotalP99 = h.Mean(), h.Quantile(0.50), h.Quantile(0.99)
		rep.Spans = sum
		// Stage breakdown: live spans originate at UDP receive, so
		// only the demux-onward segments carry signal.
		for _, st := range []struct{ label, hist string }{
			{"filter", "span.stage.filter"},
			{"pf", "span.stage.pf"},
			{"queue", "span.stage.queue"},
		} {
			h := tr.Histogram(s.dev.name, st.hist)
			rep.Stages = append(rep.Stages, StageLatency{
				Stage: st.label, Count: uint64(h.Count()),
				Mean: h.Mean(), P50: h.Quantile(0.50), P99: h.Quantile(0.99),
			})
		}
	}
	return rep
}

// Client is a control-socket client.  A transport or framing error
// breaks it for good: the connection is closed and every later call
// returns the same error, since a reply cut short leaves the stream
// out of step with the protocol.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	enc  *json.Encoder
	bw   *bufio.Writer
	mu   sync.Mutex
	err  error // sticky; set once the connection is broken
}

// DefaultDialTimeout bounds DialControl: a pfserve that is absent or
// unreachable must come back as a prompt error, never a hung dial.
const DefaultDialTimeout = 5 * time.Second

// DialControl connects to a pfserve control socket, failing within
// DefaultDialTimeout when no server answers.
func DialControl(addr string) (*Client, error) {
	return DialControlTimeout(addr, DefaultDialTimeout)
}

// DialControlTimeout is DialControl with an explicit connect bound.
func DialControlTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("pfserve control socket %s: %w", addr, err)
	}
	bw := bufio.NewWriter(conn)
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, ctlBufSize),
		enc:  json.NewEncoder(bw),
		bw:   bw,
	}, nil
}

// Close releases the connection.
func (c *Client) Close() { c.conn.Close() }

// connErr turns a transport failure into a one-line diagnosis: a bare
// io.EOF mid-protocol means the server went away, which deserves
// better than the two letters the decoder reports.  A hang-up that
// races our request surfaces as a reset or broken pipe instead of EOF;
// it is the same event.
func connErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return fmt.Errorf("control connection closed by pfserve (server gone?)")
	}
	return fmt.Errorf("control connection: %w", err)
}

// Do performs one request/response round trip.
func (c *Client) Do(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return Response{}, c.err
	}
	err := c.enc.Encode(req)
	if err == nil {
		err = c.bw.Flush()
	}
	var resp Response
	if err == nil {
		resp, err = readReply(c.br)
	}
	if err != nil {
		c.err = connErr(err)
		c.conn.Close()
		return Response{}, c.err
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("pfserve: %s", resp.Err)
	}
	return resp, nil
}

// readReply decodes one reply: the header line, then its records.
// Every allocation waits until the bytes it will hold have arrived,
// so a lying header costs no more memory than the bytes it came with.
func readReply(br *bufio.Reader) (Response, error) {
	line, err := readLine(br)
	if err != nil {
		return Response{}, err
	}
	var h replyHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return Response{}, fmt.Errorf("bad reply header: %w", err)
	}
	if h.N < 0 || h.N > maxReplyFrames {
		return Response{}, fmt.Errorf("reply promises %d records, limit %d", h.N, maxReplyFrames)
	}
	if h.N > 0 {
		if h.Packets, err = readRecords(br, h.N); err != nil {
			return Response{}, err
		}
	}
	return h.Response, nil
}

// readLine returns the next line without its newline.  A line that
// fits the buffer is returned in place, valid until the next read;
// a longer one (a big stats block) is gathered into a copy.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = br.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

// readRecords reads n length-prefixed records.  The frames share one
// arena per buffer-load: the lengths are walked with Peek first, so
// the arena is sized exactly and a reply that fits the buffer costs
// two allocations however many frames it carries.
func readRecords(br *bufio.Reader, n int) ([][]byte, error) {
	// Every record is at least its length prefix: wait for 4n bytes
	// before spending 24n on the slice headers.
	if _, err := br.Peek(4 * n); err != nil {
		return nil, err
	}
	pkts := make([][]byte, n)
	for i := 0; i < n; {
		// Walk as many whole records as the buffer holds.
		j, off, size := i, 0, 0
		for j < n {
			prefix, err := br.Peek(off + 4)
			if err == bufio.ErrBufferFull && j > i {
				break
			}
			if err != nil {
				return nil, err
			}
			l := int(binary.BigEndian.Uint32(prefix[off:]))
			if l > maxDatagram {
				return nil, fmt.Errorf("reply record of %d bytes, limit %d", l, maxDatagram)
			}
			if off+4+l > br.Size() && j > i {
				break
			}
			off += 4 + l
			size += l
			j++
		}
		buf, err := br.Peek(off)
		if err != nil {
			return nil, err
		}
		arena := make([]byte, size)
		for ; i < j; i++ {
			l := int(binary.BigEndian.Uint32(buf))
			copy(arena, buf[4:4+l])
			pkts[i], arena, buf = arena[:l:l], arena[l:], buf[4+l:]
		}
		br.Discard(off)
	}
	return pkts, nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.Do(Request{Op: "ping"})
	return err
}

// Open opens a port and returns its id.
func (c *Client) Open(queueLimit int, copyAll, stamp bool) (int, error) {
	resp, err := c.Do(Request{Op: "open", QueueLimit: queueLimit, CopyAll: copyAll, Stamp: stamp})
	return resp.Port, err
}

// SetFilter binds a filter to a port.
func (c *Client) SetFilter(port int, f filter.Filter) error {
	raw, err := f.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = c.Do(Request{Op: "setfilter", Port: port, Filter: raw})
	return err
}

// Read drains up to max packets from a port, waiting up to timeout
// (<= 0: return immediately).
func (c *Client) Read(port, max int, timeout time.Duration) ([][]byte, error) {
	resp, err := c.Do(Request{Op: "read", Port: port, Max: max,
		TimeoutMS: timeout.Milliseconds()})
	return resp.Packets, err
}

// Stats fetches the server's statistics block.
func (c *Client) Stats() (*StatsReport, error) {
	resp, err := c.Do(Request{Op: "stats"})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("pfserve: stats response missing body")
	}
	return resp.Stats, nil
}

// ClosePort closes a port on the server.
func (c *Client) ClosePort(port int) error {
	_, err := c.Do(Request{Op: "close", Port: port})
	return err
}
