package main

// The catalogue: every workload and metric the benchmark knows, with
// the unit, direction, regression bound and — for per-layer metrics —
// the interaction table (which end-to-end metric on which workload the
// layer metric is expected to move).  BENCHMARK.json at the repository
// root and interactions.json beside this file are generated from it
// (`-spec benchmark` / `-spec interactions`); bench_test.go fails when
// either file drifts from the catalogue.

import "encoding/json"

// Workload names.  Later issues cite them; do not rename.
const (
	wDemuxLinear = "demux-linear"
	wDemuxTable  = "demux-table"
	wChurnTable  = "churn-table"
	wServeSmall  = "serve-small"
	wServeBulk   = "serve-bulk"
	wSimReceive  = "sim-receive"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{wDemuxLinear, "In-process live.Device, checked interpreter, 64 equal-priority ports: the s3.2 scan (~36 filters/pkt) dominates; wire, control and table idle. Closed loop, one goroutine, 64-frame batches."},
	{wDemuxTable, "Same loop on EvalTable with 1024 ports: filter.Table plus the device's per-port walk do the work, the interpreter almost none. The s7 decision-table claim in real ns."},
	{wChurnTable, "demux-table plus one Open+SetFilter+Close of a cold port per 64 frames on the same goroutine: copy-on-write Insert/Remove beside Match, so a layout that only speeds reads loses here."},
	{wServeSmall, "Full pfserve stack on loopback (UDP wire, 8-port checked device, JSON control), 32-byte payloads: per-packet wire, wake-up and control cost dominate. Closed loop W=128, then W=1 ping-pong."},
	{wServeBulk, "serve-small with 512-byte payloads: byte-proportional costs (wire copy, queue copy, base64-in-JSON) dominate. Closed loop W=128, then W=1 ping-pong; loopback, no real link crossed."},
	{wSimReceive, "Virtual-time rig (sim+ethersim+pfdev, 16 checked ports, one reader process each, s6.1 paper mix paced below overflow): wall time per simulated frame; internal/live does nothing."},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// e2eDef is one end-to-end metric: what a user of the system sees.
// Every one is reported by every workload (the W=1 and churn phases
// give each workload its own round trip and port-churn operation).
type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	doc    string
}

const (
	mPPS        = "pps"
	mGoodput    = "goodput_MBps"
	mRTTp50     = "rtt_p50_us"
	mRTTp90     = "rtt_p90_us"
	mChurnP50   = "churn_op_p50_us"
	mCPU        = "cpu_us_per_pkt"
	mAllocs     = "allocs_per_pkt"
	mAllocBytes = "alloc_bytes_per_pkt"
	mSetup      = "setup_s"
	mHeap       = "heap_mb"
)

var endToEnd = []e2eDef{
	{mPPS, "1/s", "higher", 0.25, "packets per second injected and fully accounted in the closed-loop capacity phase (sim-receive: simulated frames per wall second)"},
	{mGoodput, "MB/s", "higher", 0.25, "Pup payload bytes returned to the reader per second in the capacity phase"},
	{mRTTp50, "us", "lower", 0.25, "W=1 round trip, median: inject start to read return for one packet in flight"},
	{mRTTp90, "us", "lower", 0.25, "W=1 round trip, 90th percentile: the highest one that repeats within the bound on a shared host (the 99th is per-layer rtt.p99_us, ungated)"},
	{mChurnP50, "us", "lower", 0.25, "one open+setfilter+close of a cold port beside traffic, median"},
	{mCPU, "us", "lower", 0.25, "process user+system CPU (getrusage) per packet over the capacity phase"},
	{mAllocs, "count", "lower", 0.10, "heap allocations per packet (runtime.MemStats.Mallocs delta) over the capacity phase"},
	{mAllocBytes, "B", "lower", 0.10, "heap bytes allocated per packet (TotalAlloc delta) over the capacity phase"},
	{mSetup, "s", "lower", 0.25, "build the device or instance, bind every filter, generate the frame pool; median of repeated set-ups"},
	{mHeap, "MB", "lower", 0.25, "live heap (HeapAlloc) after set-up and a forced GC"},
}

// layerDef is one per-layer metric.  Moves/On are the interaction
// table: the end-to-end metric this layer metric should move and the
// workloads whose path crosses the layer.  On every other workload the
// metric reads 0: the layer is bypassed there, which is the "no
// change" half of each exercise/bypass pair.
type layerDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Layer  string   `json:"layer"`
	Moves  []string `json:"moves"`
	On     []string `json:"on"`
	Exact  bool     `json:"exact,omitempty"`
	Doc    string   `json:"doc"`
}

var (
	onLinear    = []string{wDemuxLinear, wServeSmall, wServeBulk}
	onTable     = []string{wDemuxTable, wChurnTable}
	onDemux     = []string{wDemuxLinear, wDemuxTable, wChurnTable}
	onLive      = []string{wDemuxLinear, wDemuxTable, wChurnTable, wServeSmall, wServeBulk}
	onServe     = []string{wServeSmall, wServeBulk}
	onSim       = []string{wSimReceive}
	onAll       = []string{wDemuxLinear, wDemuxTable, wChurnTable, wServeSmall, wServeBulk, wSimReceive}
	movesPPS    = []string{mPPS, mCPU}
	movesChurn  = []string{mChurnP50}
	movesRTT    = []string{mRTTp50, mRTTp90}
	movesPPSRTT = []string{mPPS, mRTTp50}
	movesBulk   = []string{mPPS, mGoodput}
	movesNone   = []string{}
)

var perLayer = []layerDef{
	// internal/filter, measured by isolated probes over the workload's own pool.
	{"filter.run_ns", "ns", "lower", "filter", movesPPS, onLinear, false, "filter.Run of a port's socket filter on a frame it accepts"},
	{"filter.flat_run_ns", "ns", "lower", "filter", movesPPS, onTable, false, "FlatProg.Run of the same filter on the same frame"},
	{"filter.scan_ns_per_pkt", "ns", "lower", "filter", movesPPS, onLinear, false, "the s3.2 priority scan replayed with public filter.Run over one pass of the pool"},
	{"filter.scan_filters_per_pkt", "count", "lower", "filter", movesPPS, onLinear, true, "filters applied per packet in that replay"},
	{"filter.instrs_per_pkt", "count", "lower", "filter", movesPPS, onLinear, true, "instruction words interpreted per packet in that replay"},
	{"filter.validate_ns", "ns", "lower", "filter", movesChurn, onLinear, false, "filter.Validate of one socket filter"},
	{"filter.compile_flat_us", "us", "lower", "filter", movesChurn, onTable, false, "filter.CompileFlat of one socket filter"},
	{"filter.table.match_ns", "ns", "lower", "filter", movesPPS, onTable, false, "Table.Match at 1024 filters over one pass of the pool"},
	{"filter.table.build_ms", "ms", "lower", "filter", []string{mSetup}, onTable, false, "filter.BuildTable of the 1024 filters"},
	{"filter.table.insert_us", "us", "lower", "filter", movesChurn, onTable, false, "copy-on-write Table.Insert of a cold filter into the 1024-filter table"},
	{"filter.table.remove_us", "us", "lower", "filter", movesChurn, onTable, false, "copy-on-write Table.Remove of that filter"},
	{"filter.table.work_per_churn", "count", "lower", "filter", movesChurn, onTable, true, "Table.Work units spent by one Insert+Remove"},

	// internal/live device.
	{"live.device.input_ns", "ns", "lower", "live.device", movesPPS, onLive, false, "Device.Input per packet in the traced capacity phase (timed per 64-frame batch in-process, per sampled packet behind the wire)"},
	{"live.device.overhead_ns", "ns", "lower", "live.device", movesPPS, onLive, false, "input_ns minus the filter share (scan_ns_per_pkt or table.match_ns): lock, clock reads, port walk, enqueue"},
	{"live.port.readbatch_ns_per_pkt", "ns", "lower", "live.device", movesPPS, onLive, false, "Port.ReadBatch per packet returned"},
	{"live.port.read_batch_size", "count", "higher", "live.device", movesPPS, onLive, false, "packets per Port.ReadBatch on the device (PortStats)"},
	{"live.port.open_us", "us", "lower", "live.device", movesChurn, onLive, false, "Device.Open (control-socket open on serve-*)"},
	{"live.port.setfilter_us", "us", "lower", "live.device", movesChurn, onLive, false, "Port.SetFilter of a cold filter (control-socket setfilter on serve-*)"},
	{"live.port.close_us", "us", "lower", "live.device", movesChurn, onLive, false, "Port.Close (control-socket close on serve-*)"},
	{"live.port.churn_op_p90_us", "us", "lower", "live.device", movesNone, onLive, false, "open+setfilter+close, 90th percentile (ungated: does not repeat within a tenth)"},
	{"live.port.churn_op_p99_us", "us", "lower", "live.device", movesNone, onLive, false, "open+setfilter+close, 99th percentile (ungated)"},
	{"live.port.churn_op_mean_us", "us", "lower", "live.device", movesNone, onLive, false, "open+setfilter+close, mean (ungated)"},
	{"live.device.kernel_drops", "count", "lower", "live.device", movesNone, onLive, true, "no-match/quota/admission drops over the run beyond the pool's planned no-match share"},
	{"live.port.overflow_drops", "count", "lower", "live.device", movesNone, onLive, true, "port queue overflow drops over the run"},
	{"live.device.tracer_overhead_ns", "ns", "lower", "live.device", movesPPS, onLive, false, "Device.Input per packet with a span tracer minus with Tracer nil; moves pps on serve-* (spans always on), not on demux-*"},

	// internal/live wire.
	{"live.wire.send_ns", "ns", "lower", "live.wire", movesPPSRTT, onServe, false, "Sender.Send per datagram"},
	{"live.wire.transit_us", "us", "lower", "live.wire", movesRTT, onServe, false, "Send return to wire handler entry at W=1"},
	{"live.wire.only_pps", "1/s", "higher", "live.wire", []string{mPPS}, onServe, false, "ListenWire with a counting no-op handler at W=128: the wire's ceiling with no device"},

	// internal/live control socket.
	{"live.control.read_rtt_us", "us", "lower", "live.control", movesPPSRTT, onServe, false, "an empty non-blocking Client.Read"},
	{"live.control.read_ns_per_pkt", "ns", "lower", "live.control", movesBulk, onServe, false, "Client.Read draining a pre-filled queue 64 packets at a time, per packet"},
	{"live.control.read_batch_size", "count", "higher", "live.control", movesPPS, onServe, false, "packets per non-empty Client.Read in the capacity phase"},
	{"live.control.handoff_us", "us", "lower", "live.control", movesRTT, onServe, false, "wire handler exit to Client.Read return at W=1"},
	{"live.control.setfilter_us", "us", "lower", "live.control", movesChurn, onServe, false, "Client.SetFilter round trip"},
	{"live.control.stats_us", "us", "lower", "live.control", movesNone, onServe, false, "Client.Stats round trip"},
	{"live.stats.stage_filter_mean_ns", "ns", "lower", "live.control", movesPPS, onServe, false, "the server's own StatsReport: demux entry to filter retire, mean"},
	{"live.stats.stage_queue_mean_us", "us", "lower", "live.control", movesRTT, onServe, false, "the server's own StatsReport: port enqueue to user read, mean"},

	// The latency budget.
	{"rtt.budget_residual_pct", "%", "lower", "budget", movesNone, onServe, false, "self time of the rtt span after its children send, transit, input, handoff, over the rtt mean; above 15 the budget does not add up"},
	{"rtt.p99_us", "us", "lower", "budget", movesNone, onAll, false, "W=1 round trip, 99th percentile (ungated: its ten-seed spread reached 32% of the median on serve-small)"},
	{"rtt.p999_us", "us", "lower", "budget", movesNone, onAll, false, "W=1 round trip, 99.9th percentile (ungated)"},
	{"rtt.mean_us", "us", "lower", "budget", movesNone, onAll, false, "W=1 round trip, mean (ungated)"},
	{"demux.budget_residual_pct", "%", "lower", "budget", movesNone, onDemux, false, "1e9/pps minus (device.input_ns + port.readbatch_ns_per_pkt), over 1e9/pps: the harness's own share of the in-process loop"},

	// sim / pfdev / ethersim / vtime.
	{"sim.wall_us_per_frame", "us", "lower", "sim", movesPPS, onSim, false, "wall time per simulated frame in the traced capacity phase"},
	{"sim.nomatch_wall_us_per_frame", "us", "lower", "sim", movesPPS, onSim, false, "the same rig with no port bound: scheduler + NIC alone"},
	{"sim.ctx_switches_per_pkt", "count", "lower", "sim", movesPPS, onSim, true, "vtime.Counters.ContextSwitches per received frame, fixed-count run"},
	{"sim.syscalls_per_pkt", "count", "lower", "sim", movesPPS, onSim, true, "vtime.Counters.Syscalls per received frame, fixed-count run"},
	{"sim.copies_per_pkt", "count", "lower", "sim", movesPPS, onSim, true, "vtime.Counters.Copies per received frame, fixed-count run"},
	{"pfdev.scan_wall_ns_per_filter", "ns", "lower", "pfdev", movesPPS, onSim, false, "(64-port wall per frame minus 1-port wall per frame) / 63"},
	{"pfdev.filter_applied_per_pkt", "count", "lower", "pfdev", movesPPS, onSim, true, "vtime.Counters.FilterApplied per received frame, fixed-count run"},
	{"pfdev.filter_instrs_per_pkt", "count", "lower", "pfdev", movesPPS, onSim, true, "vtime.Counters.FilterInstrs per received frame, fixed-count run"},
	{"sim.virt_ms_per_pkt", "ms", "lower", "vtime", movesNone, onSim, true, "receiver-host virtual kernel mSec per delivered packet, fixed-count run; a cost-model change shows as a diff"},
	{"trace.sim_tracer_overhead_pct", "%", "lower", "trace", movesPPS, onSim, false, "wall per frame with a trace.Tracer (spans on) attached to the sim, over without"},

	// The harness itself.
	{"bench.window_full_share", "ratio", "higher", "bench", movesNone, onServe, false, "mean share of the W=128 window in flight when the injector sends; above 0.5 the capacity round is server-bound"},
	{"bench.loop_overhead_ns", "ns", "lower", "bench", movesNone, onAll, false, "harness verification and bookkeeping per packet"},
	{"bench.gen_ns_per_frame", "ns", "lower", "bench", []string{mSetup}, onAll, false, "frame generation per frame (pool build, or workload.Generator.Frame on sim-receive)"},
	{"bench.trace_overhead_pct", "%", "lower", "bench", movesNone, onAll, false, "capacity pps with harness spans on versus off, interleaved in the traced run"},
}

// on reports whether the layer metric is measured on the workload.
func (d layerDef) on(workload string) bool {
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// benchmarkSpec is BENCHMARK.json: exactly the keys the driver reads.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eDef      `json:"end_to_end"`
	PerLayer   []specLayer   `json:"per_layer"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the measured time per run the driver asks for.
const runSeconds = 15

func buildSpec() benchmarkSpec {
	spec := benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, specLayer{d.Name, d.Unit, d.Better})
	}
	return spec
}

// interactionSpec is interactions.json: the interaction table in
// machine-readable form, with the method notes BENCHMARK.json's fixed
// schema has no room for.
type interactionSpec struct {
	Method   map[string]string `json:"method"`
	EndToEnd []e2eDoc          `json:"end_to_end"`
	PerLayer []layerDef        `json:"per_layer"`
}

type e2eDoc struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

func buildInteractions() interactionSpec {
	spec := interactionSpec{
		Method: map[string]string{
			"loop":     "closed; capacity W=128 on serve-* (64-frame batches in-process), round trip W=1",
			"link":     "host loopback only; no real link is crossed",
			"idlers":   "one nice-19 spinning child process per CPU for the length of a run, so that no vCPU halts: hypervisor wake-up latency is kept out of every number",
			"rounds":   "one discarded warm-up round, then 5 measured rounds; every end-to-end metric is the median of the 5",
			"seed":     "-seed draws the frame pool (sockets, miss positions, payload bytes); the program under test sees only the frames",
			"tracing":  "-trace 0 measures end-to-end metrics with harness spans off; -trace 1 reports per-layer metrics from harness spans and isolated probes",
			"zero":     "a per-layer metric reads 0 on a workload outside its 'on' list: the layer is bypassed there",
			"failures": "failed/attempted in the result line is the issue's fail_share; any failure makes the exit status non-zero",
		},
		PerLayer: perLayer,
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2eDoc{d.Name, d.doc})
	}
	return spec
}

func marshalSpec(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return append(b, '\n')
}
