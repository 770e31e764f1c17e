// Pfserve runs the packet filter live: the identical filter engine,
// resource governor, span tracer and flight recorder that the
// simulator exercises in virtual time, serving real packets on real
// sockets.  Frames arrive as loopback UDP datagrams (a batch of
// length-prefixed frames per datagram, each verbatim — the wire
// stand-in for ethersim's shared medium); ports are opened, filters
// bound, packets read and statistics fetched over a JSON-lines TCP
// control socket.
//
//	pfserve [-ctl addr] [-udp addr] [-link 3mb|10mb]
//	        [-mode checked|fast|compiled|table] [-gov] [-reorder]
//	        [-queues n]
//
// With -selftest N, pfserve instead runs a self-contained load test:
// it starts an instance on ephemeral ports, drives N packets through
// it with the load driver, reconciles every layer's counters exactly,
// prints throughput and per-stage latency, and exits nonzero if any
// counter fails to reconcile.
//
//	pfserve -selftest 10000 [-profile mix|heavytail] [-ports k] [-flows f]
//	        [-seed s] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/ethersim"
	"repro/internal/live"
	"repro/internal/pfdev"
)

func parseLink(name string) (ethersim.LinkType, error) {
	switch name {
	case "3mb":
		return ethersim.Ether3Mb, nil
	case "10mb":
		return ethersim.Ether10Mb, nil
	}
	return 0, fmt.Errorf("-link must be 3mb or 10mb, not %q", name)
}

func parseMode(name string) (pfdev.EvalMode, error) {
	switch name {
	case "checked":
		return pfdev.EvalChecked, nil
	case "fast":
		return pfdev.EvalFast, nil
	case "compiled":
		return pfdev.EvalCompiled, nil
	case "table":
		return pfdev.EvalTable, nil
	}
	return 0, fmt.Errorf("-mode must be checked, fast, compiled or table, not %q", name)
}

func main() {
	ctlAddr := flag.String("ctl", "127.0.0.1:7227", "control-socket TCP address")
	udpAddr := flag.String("udp", "127.0.0.1:7228", "wire UDP address")
	linkName := flag.String("link", "10mb", "frame geometry: 3mb or 10mb")
	modeName := flag.String("mode", "checked", "filter engine: checked, fast, compiled or table")
	gov := flag.Bool("gov", false, "enable the resource governor (default quotas)")
	reorder := flag.Bool("reorder", true, "busy-first scan-order reordering")
	queues := flag.Int("queues", 1, "RSS receive queues (1 = classic single-queue demux)")
	selftest := flag.Int("selftest", 0, "run a self-contained load test with this many packets and exit")
	profile := flag.String("profile", "mix", "selftest traffic: mix (paper §6.1) or heavytail (bounded-Pareto flows)")
	ports := flag.Int("ports", 8, "selftest receiving ports")
	flows := flag.Int("flows", 1, "selftest link-level flows (spread across -queues)")
	seed := flag.Int64("seed", 42, "selftest workload seed")
	asJSON := flag.Bool("json", false, "selftest: emit the report as JSON")
	flag.Parse()

	link, err := parseLink(*linkName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfserve:", err)
		os.Exit(2)
	}
	mode, err := parseMode(*modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfserve:", err)
		os.Exit(2)
	}
	opt := live.Options{Link: link, Mode: mode, Reorder: *reorder, Queues: *queues}
	if *gov {
		opt.Gov = pfdev.DefaultGovConfig()
	}

	if *selftest > 0 {
		runSelftest(opt, *selftest, *ports, *flows, *seed, *profile, link, *asJSON)
		return
	}

	inst, err := live.Start(live.ServeConfig{CtlAddr: *ctlAddr, UDPAddr: *udpAddr, Opt: opt})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfserve:", err)
		os.Exit(1)
	}
	fmt.Printf("pfserve: control %s, wire %s, link %s, mode %s, gov %v, queues %d\n",
		inst.CtlAddr(), inst.UDPAddr(), *linkName, *modeName, *gov, *queues)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "pfserve: shutting down")
	inst.Close()
}

func runSelftest(opt live.Options, packets, ports, flows int, seed int64, profile string,
	link ethersim.LinkType, asJSON bool) {
	inst, err := live.Start(live.ServeConfig{
		CtlAddr:  "127.0.0.1:0",
		UDPAddr:  "127.0.0.1:0",
		Opt:      opt,
		SpanRing: ringFor(packets),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfserve: selftest start:", err)
		os.Exit(1)
	}
	defer inst.Close()

	rep, err := live.RunLoad(inst.CtlAddr(), inst.UDPAddr(), live.LoadConfig{
		Packets: packets, Ports: ports, Seed: seed, Link: link, Profile: profile,
		Flows: flows,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfserve: selftest:", err)
		os.Exit(1)
	}

	if asJSON {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfserve:", err)
			os.Exit(1)
		}
		fmt.Println(string(raw))
	} else {
		printReport(rep, profile)
	}
	if len(rep.Errors) > 0 {
		for _, e := range rep.Errors {
			fmt.Fprintln(os.Stderr, "pfserve: selftest FAIL:", e)
		}
		os.Exit(1)
	}
}

// ringFor sizes the flight recorder so a conservation-proving run
// never evicts a live span.
func ringFor(packets int) int {
	ring := 1 << 15
	for ring < 2*packets {
		ring <<= 1
	}
	return ring
}

func printReport(rep *live.LoadReport, profile string) {
	fmt.Printf("pfserve selftest: profile %s\n", profile)
	fmt.Printf("  sent      %8d frames in %v (%.0f pkt/s injection)\n",
		rep.Sent, rep.SendTime.Round(0), rep.SendRate())
	fmt.Printf("  delivered %8d frames to readers (%.0f pkt/s end to end)\n",
		rep.Delivered, rep.Rate())
	st := rep.Stats
	if st != nil {
		fmt.Printf("  device: %d received, %d kernel drops, %d queued now\n",
			st.Device.Received, st.Device.KernelDrops, st.Device.QueuedNow)
		if st.Spans != nil {
			fmt.Printf("  spans: %d created = %d delivered + %d dropped (%d live)\n",
				st.Spans.Created, st.Spans.DeliveredUser, st.Spans.TotalDrops, st.Spans.Live)
			if len(st.Spans.Drops) > 0 {
				fmt.Println("  drop taxonomy:")
				for name, n := range st.Spans.Drops {
					fmt.Printf("    %-12s %8d\n", name, n)
				}
			}
		}
		if len(st.Stages) > 0 {
			fmt.Println("  per-stage latency:")
			fmt.Printf("    %-8s %8s %12s %12s %12s\n", "stage", "count", "mean", "p50", "p99")
			for _, sl := range st.Stages {
				fmt.Printf("    %-8s %8d %12v %12v %12v\n",
					sl.Stage, sl.Count, sl.Mean, sl.P50, sl.P99)
			}
		}
		if st.Spans != nil && st.Spans.TotalMean > 0 {
			fmt.Printf("    %-8s %8s %12v %12v %12v\n",
				"total", "", st.Spans.TotalMean, st.Spans.TotalP50, st.Spans.TotalP99)
		}
	}
	if len(rep.Errors) == 0 {
		fmt.Println("  reconciliation: OK (all counters account exactly)")
	}
}
