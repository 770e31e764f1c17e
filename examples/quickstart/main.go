// Quickstart: build a packet filter with the run-time builder (§3.1's
// "library procedure"), inspect it, and evaluate it against packets
// with the checked interpreter, the compiled flat code and a merged
// decision table.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/pup"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, writing what it shows to w.
func run(w io.Writer) error {
	// The paper's figure 3-9 filter: accept Pup packets whose
	// destination socket is 35, testing the most selective field
	// first with short-circuit operators.
	prog, err := filter.NewBuilder().
		CANDWordEQ(8, 35). // low word of DstSocket == 35, else reject now
		CANDWordEQ(7, 0).  // high word == 0
		WordEQ(1, 2).      // Ethernet type == Pup
		Program()
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "filter program (figure 3-9):")
	fmt.Fprint(w, prog.String())

	// Build two Pup packets on the 3 Mb experimental Ethernet.
	mk := func(socket uint32) []byte {
		pkt := pup.Packet{
			Type: pup.TypeEchoMe,
			Dst:  pup.PortAddr{Net: 1, Host: 2, Socket: socket},
			Src:  pup.PortAddr{Net: 1, Host: 1, Socket: 99},
			Data: []byte("hello"),
		}
		payload, _ := pkt.Marshal() // five bytes of data never exceed MaxData
		return ethersim.Ether3Mb.Encode(2, 1, ethersim.EtherTypePup3Mb, payload)
	}
	match, miss := mk(35), mk(36)

	// 1. The checked interpreter (the production engine of §4).
	for _, c := range []struct {
		name string
		pkt  []byte
	}{{"socket 35", match}, {"socket 36", miss}} {
		r := filter.Run(prog, c.pkt)
		fmt.Fprintf(w, "checked interpreter, %s: accept=%v after %d instructions\n",
			c.name, r.Accept, r.Instrs)
	}

	// 2. Validated and compiled ahead of time (§7's two speedups, one
	// flat register code): same verdict and instruction count, no
	// per-instruction checks.
	fp, err := filter.CompileFlat(prog, filter.ValidateOptions{}, filter.Env{})
	if err != nil {
		return err
	}
	r := fp.Run(match)
	fmt.Fprintf(w, "compiled: accept=%v after %d instructions (max stack %d)\n",
		r.Accept, r.Instrs, fp.Info().MaxStack)

	// 3. A whole filter set merged into one decision table (§7).
	set := []filter.Filter{
		{Priority: 10, Program: prog},
		filter.DstSocketFilter(10, 36),
		filter.DstSocketFilter(5, 99),
	}
	tbl := filter.BuildTable(set)
	fmt.Fprintf(w, "decision table: packet for socket 36 matches filter #%d\n",
		tbl.MatchBest(miss))
	return nil
}
