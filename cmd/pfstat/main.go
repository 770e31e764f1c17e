// Pfstat is the observability front end for the simulated packet
// filter: it drives the paper's mixed traffic profile (21% packet
// filter / 69% kernel IP / 10% ARP, §6.1) at a receiver with a
// configurable port population, watches the whole run through the
// virtual-time tracer, and reports where the kernel time went.
//
//	pfstat [-link 3mb|10mb] [-n packets] [-ports k] [-seed s]
//	       [-json] [-chrome file]
//
// With -live addr, pfstat instead connects to a running pfserve's
// control socket and renders that server's statistics — the same
// per-port, governor and provenance tables, fed by real packets.
//
// The default output is a set of text tables: event counters, queue
// gauges, arrival-to-delivery latency percentiles, the per-host
// kernel-time profile with its §6.1 packet-filter summary, per-port
// statistics, and the static instruction mix of the bound filters.
// -json emits the same data machine-readably; -chrome writes the full
// event stream as Chrome trace-event JSON, which opens in Perfetto
// (ui.perfetto.dev) as a per-host timeline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/inet"
	"repro/internal/live"
	"repro/internal/pfdev"
	"repro/internal/pup"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/workload"
)

func main() {
	linkName := flag.String("link", "10mb", "network type: 3mb or 10mb")
	n := flag.Int("n", 400, "packets of mixed traffic to generate")
	nPorts := flag.Int("ports", 8, "packet-filter ports at the receiver")
	ring := flag.Int("ring", 0, "map a shared-memory ring of this many slots on each Pup reader (0 = copying reads)")
	coalesce := flag.Int("coalesce", 0, "interrupt-coalescing budget at the receiver (0 or 1 = off)")
	coalesceDelay := flag.Duration("coalesce-delay", 2*time.Millisecond, "interrupt-moderation timer (with -coalesce)")
	seed := flag.Int64("seed", 42, "workload random seed")
	spans := flag.Bool("spans", false, "track per-packet provenance (sampling 1): per-stage latency breakdown, drop taxonomy and flight recorder")
	quota := flag.Bool("quota", false, "enable the resource governor and report per-port fuel, quarantines and admission sheds")
	hostile := flag.Int("hostile", 0, "bind this many adversarial max-length burn filters at the receiver")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	chromeFile := flag.String("chrome", "", "write Chrome trace-event JSON (Perfetto) to this file")
	liveAddr := flag.String("live", "", "read statistics from a running pfserve control socket at this address instead of simulating")
	flag.Parse()

	if *liveAddr != "" {
		liveReport(*liveAddr, *asJSON)
		return
	}

	link := ethersim.Ether3Mb
	if *linkName == "10mb" {
		link = ethersim.Ether10Mb
	} else if *linkName != "3mb" {
		fmt.Fprintln(os.Stderr, "pfstat: -link must be 3mb or 10mb")
		os.Exit(2)
	}
	if *nPorts < 1 {
		fmt.Fprintln(os.Stderr, "pfstat: -ports must be at least 1")
		os.Exit(2)
	}

	tr := trace.New()
	var rec *trace.Recorder
	if *chromeFile != "" {
		rec = &trace.Recorder{}
		tr.SetSink(rec)
	}
	var sp *trace.Spans
	if *spans {
		sp = tr.EnableSpans(trace.SpanConfig{Ring: 1 << 14})
		defer trace.DumpOnPanic(sp, os.Stderr)()
	}

	s := sim.New(vtime.DefaultCosts())
	s.SetTracer(tr)
	net := ethersim.New(s, link)
	src := s.NewHost("src")
	recv := s.NewHost("recv")
	nicSrc := net.Attach(src, 1)
	nicRecv := net.Attach(recv, 2)

	stack := inet.NewStack(nicRecv, 0x0A000002)
	devOpts := pfdev.Options{Reorder: true,
		CoalesceBudget: *coalesce, CoalesceDelay: *coalesceDelay}
	if *quota {
		devOpts.Gov = pfdev.DefaultGovConfig()
	}
	dev := pfdev.Attach(nicRecv, stack, devOpts)
	pfdev.Attach(nicSrc, nil, pfdev.Options{})

	// Adversarial ports: each binds the worst legal filter — maximum
	// length, never matches — so every frame on the wire charges the
	// receiver the full burn.  With -quota the governor quarantines
	// them; without it the report shows the damage.
	if *hostile > 0 {
		s.Spawn(recv, "hostile", func(p *sim.Proc) {
			for i := 0; i < *hostile; i++ {
				hp := dev.Open(p)
				if err := hp.SetFilter(p, filter.Filter{
					Priority: 20, Program: workload.BurnProgram(),
				}); err != nil {
					fmt.Fprintln(os.Stderr, "pfstat: hostile filter:", err)
					return
				}
			}
		})
	}

	// A kernel UDP sink so the IP share of the mix terminates in a
	// real protocol, and one Pup reader per packet-filter port.
	s.Spawn(recv, "udp-sink", func(p *sim.Proc) {
		u, err := stack.UDPBind(p, 1)
		if err != nil {
			return
		}
		u.SetTimeout(300 * time.Millisecond)
		for {
			if _, err := u.Recv(p); err != nil {
				return
			}
		}
	})
	sockets := make([]uint32, *nPorts)
	for i := range sockets {
		sockets[i] = uint32(0x100 + i)
		sock := sockets[i]
		s.Spawn(recv, fmt.Sprintf("pup-%d", i), func(p *sim.Proc) {
			ps, err := pup.Open(p, dev, pup.PortAddr{Net: 1, Host: 2, Socket: sock}, 10)
			if err != nil {
				return
			}
			ps.Batch = true
			if *ring > 0 {
				if err := ps.EnableRing(p, *ring); err != nil {
					fmt.Fprintln(os.Stderr, "pfstat: ring:", err)
				}
			}
			ps.SetTimeout(p, 300*time.Millisecond)
			for {
				if _, err := ps.Recv(p); err != nil {
					return
				}
			}
		})
	}

	gen := workload.NewGenerator(*seed, link, workload.PaperMix(), sockets)
	gen.SocketBias = 0.4
	s.Spawn(src, "traffic", func(p *sim.Proc) {
		p.Sleep(time.Duration(20+4**nPorts) * time.Millisecond)
		gen.Drive(p, nicSrc, 2, *n, 4*time.Millisecond)
	})
	s.Run(5 * time.Minute)

	// Collect the per-port statistics with a real status-read ioctl.
	var ports []pfdev.PortStats
	var gov pfdev.GovStats
	s.Spawn(recv, "pfstat", func(p *sim.Proc) {
		ports = dev.PortStats(p)
		if *quota {
			gov = dev.GovStats(p)
		}
	})
	s.Run(0)

	snap := tr.Snapshot()
	var taxonomy map[string]uint64
	if sp != nil {
		taxonomy = make(map[string]uint64)
		for i, n := range sp.Drops {
			if n > 0 {
				taxonomy[trace.DropReason(i).String()] = n
			}
		}
	}
	if *asJSON {
		report := struct {
			Trace *trace.Snapshot   `json:"trace"`
			Ports []pfdev.PortStats `json:"ports"`
			Spans *trace.Spans      `json:"spans,omitempty"`
			Drops map[string]uint64 `json:"drop_taxonomy,omitempty"`
			Gov   *pfdev.GovStats   `json:"gov,omitempty"`
		}{Trace: snap, Ports: ports, Spans: sp, Drops: taxonomy}
		if *quota {
			report.Gov = &gov
		}
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfstat:", err)
			os.Exit(1)
		}
		fmt.Println(string(raw))
	} else {
		fmt.Print(snap.Text())
		printPortTable(ports)
		if *quota {
			printGovTable(gov, ports)
		}

		// Every reader binds the same socket-demux program shape;
		// its static instruction mix explains the pf.instrs column.
		mix := filter.MixOf(pup.SocketFilter(link, 10, sockets[0]).Program)
		fmt.Printf("\nbound filter mix (per port): %s\n", mix)

		c := recv.Counters
		fmt.Printf("\nreceiver interrupt load: %d kernel entries", c.KernelEntries)
		if c.PacketsIn > 0 {
			fmt.Printf(" (%.2f per packet in)", float64(c.KernelEntries)/float64(c.PacketsIn))
		}
		fmt.Println()
		if c.Bursts > 0 {
			fmt.Printf("interrupt coalescing: %d bursts, %d frames coalesced (%.1f frames/burst)\n",
				c.Bursts, c.CoalescedFrames, float64(c.CoalescedFrames)/float64(c.Bursts))
		}
		if sp != nil {
			fmt.Println("\nper-packet provenance (sampling 1)")
			printStageHeader()
			stages := []struct{ label, hist string }{
				{"wire", "span.stage.wire"},
				{"nic", "span.stage.nic"},
				{"filter", "span.stage.filter"},
				{"pf", "span.stage.pf"},
				{"queue", "span.stage.queue"},
			}
			for _, st := range stages {
				h := tr.Histogram("recv", st.hist)
				printStageRow(st.label, uint64(h.Count()), h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
			}
			h := sp.Total()
			printStageRow("total", uint64(h.Count()), h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
			fmt.Printf("\nflight recorder: %d spans created, %d delivered to users, %d to kernel protocols, %d dropped, %d live\n",
				sp.Created, sp.DeliveredUser, sp.DeliveredKernel, sp.TotalDrops(), sp.Live())
			if len(taxonomy) > 0 {
				fmt.Println("drop taxonomy")
				for i, n := range sp.Drops {
					if n > 0 {
						fmt.Printf("  %-12s %8d\n", trace.DropReason(i), n)
					}
				}
			}
		}
	}

	if *chromeFile != "" {
		f, err := os.Create(*chromeFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfstat:", err)
			os.Exit(1)
		}
		defer f.Close()
		var recs []trace.SpanRecord
		if sp != nil {
			recs = sp.RecordsSnapshot()
		}
		if err := trace.WriteChromeTraceSpans(f, rec.Events, recs); err != nil {
			fmt.Fprintln(os.Stderr, "pfstat:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pfstat: wrote %d trace events to %s\n", len(rec.Events), *chromeFile)
	}
}

// printPortTable renders the per-port statistics table — shared by the
// simulated run and -live mode, which feeds it the same PortStats
// structs fetched over the control socket.
func printPortTable(ports []pfdev.PortStats) {
	fmt.Println("\nper-port statistics")
	fmt.Printf("  %4s %4s %6s %5s %5s %8s %8s %6s %7s %7s %5s %8s %8s\n",
		"port", "prio", "queued", "maxq", "drops", "matched", "instrs",
		"reads", "batches", "batched", "reaps", "copiedB", "mappedB")
	for _, ps := range ports {
		fmt.Printf("  %4d %4d %6d %5d %5d %8d %8d %6d %7d %7d %5d %8d %8d\n",
			ps.ID, ps.Priority, ps.Queued, ps.MaxQueued, ps.Dropped,
			ps.Matched, ps.FilterInstrs, ps.Reads, ps.BatchReads, ps.BatchPackets,
			ps.RingReaps, ps.BytesCopied, ps.BytesMapped)
	}
}

// printGovTable renders the resource-governor block.
func printGovTable(gov pfdev.GovStats, ports []pfdev.PortStats) {
	fmt.Println("\nresource governor")
	fmt.Printf("  admission: %d frames shed, backlog %d, shedding=%v\n",
		gov.AdmissionSheds, gov.Backlog, gov.Shedding)
	fmt.Printf("  quarantine: %d quarantines, %d filter evaluations skipped\n",
		gov.Quarantines, gov.QuarantineSkips)
	fmt.Printf("  fuel: %d instruction units charged across all ports\n", gov.FuelSpent)
	fmt.Printf("  %4s %4s %10s %11s %9s %12s\n",
		"port", "prio", "fuel", "quarantines", "skips", "residency")
	for _, ps := range ports {
		fmt.Printf("  %4d %4d %10d %11d %9d %12v\n",
			ps.ID, ps.Priority, ps.FuelSpent, ps.Quarantines,
			ps.QuarantineSkips, ps.AvgResidency)
	}
}

func printStageHeader() {
	fmt.Printf("  %-8s %8s %12s %12s %12s\n", "stage", "count", "mean", "p50", "p99")
}

func printStageRow(label string, count uint64, mean, p50, p99 time.Duration) {
	fmt.Printf("  %-8s %8d %12v %12v %12v\n", label, count, mean, p50, p99)
}

// liveReport fetches a running pfserve's statistics over its control
// socket and renders them with the same tables the simulated report
// uses.
func liveReport(addr string, asJSON bool) {
	ctl, err := live.DialControl(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfstat: live:", err)
		os.Exit(1)
	}
	defer ctl.Close()
	st, err := ctl.Stats()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfstat: live:", err)
		os.Exit(1)
	}

	if asJSON {
		raw, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfstat:", err)
			os.Exit(1)
		}
		fmt.Println(string(raw))
		return
	}

	fmt.Printf("pfserve at %s (live mode)\n", addr)
	fmt.Printf("device: %d frames received, %d kernel drops, %d queued now\n",
		st.Device.Received, st.Device.KernelDrops, st.Device.QueuedNow)
	if st.Wire != nil {
		fmt.Printf("wire: %d frames in %d datagrams, %d bytes, %d malformed datagrams\n",
			st.Wire.Received, st.Wire.Datagrams, st.Wire.RxBytes, st.Wire.Malformed)
	}
	printPortTable(st.Ports)
	if st.Gov != nil {
		printGovTable(*st.Gov, st.Ports)
	}
	if st.Spans != nil {
		fmt.Println("\nper-packet provenance (sampling 1)")
		printStageHeader()
		for _, sl := range st.Stages {
			printStageRow(sl.Stage, sl.Count, sl.Mean, sl.P50, sl.P99)
		}
		printStageRow("total", st.Spans.Created-st.Spans.Live,
			st.Spans.TotalMean, st.Spans.TotalP50, st.Spans.TotalP99)
		fmt.Printf("\nflight recorder: %d spans created, %d delivered to users, %d to kernel protocols, %d dropped, %d live\n",
			st.Spans.Created, st.Spans.DeliveredUser, st.Spans.DeliveredKernel,
			st.Spans.TotalDrops, st.Spans.Live)
		if len(st.Spans.Drops) > 0 {
			fmt.Println("drop taxonomy")
			for name, n := range st.Spans.Drops {
				fmt.Printf("  %-12s %8d\n", name, n)
			}
		}
	}
}
