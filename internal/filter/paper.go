package filter

// The two example filters from the paper, §3.1.  Both operate on Pup
// packets carried on the 3 Mbit/s Experimental Ethernet, whose
// data-link header is two 16-bit words with the packet type in word 1
// (figure 3-7); the Pup type is the low byte of word 3 and the Pup
// destination socket is words 7 (high) and 8 (low).
//
// They double as conformance tests: the test suite checks them against
// hand-constructed Pup packets, and the ablation benchmarks compare
// their costs under each evaluation mode.

// PupEtherType is the 3 Mb Ethernet type code for Pup used in the
// paper's listings.
const PupEtherType = 2

// Fig38PupTypeRange is the figure 3-8 example: "This filter accepts
// all Pup packets with Pup Types between 1 and 100."
//
//	struct enfilter f = {
//	    10, 12,                     /* priority and length */
//	    PUSHWORD+1, PUSHLIT|EQ, 2,  /* packet type == PUP */
//	    PUSHWORD+3, PUSH00FF|AND,   /* mask low byte */
//	    PUSHZERO|GT,                /* PupType > 0 */
//	    PUSHWORD+3, PUSH00FF|AND,   /* mask low byte */
//	    PUSHLIT|LE, 100,            /* PupType <= 100 */
//	    AND,                        /* 0 < PupType <= 100 */
//	    AND                         /* && packet type == PUP */
//	};
func Fig38PupTypeRange() Filter {
	return Filter{
		Priority: 10,
		Program: Program{
			MkInstr(PushWord(1), NOP), MkInstr(PUSHLIT, EQ), 2,
			MkInstr(PushWord(3), NOP), MkInstr(PUSH00FF, AND),
			MkInstr(PUSHZERO, GT),
			MkInstr(PushWord(3), NOP), MkInstr(PUSH00FF, AND),
			MkInstr(PUSHLIT, LE), 100,
			MkInstr(NOPUSH, AND),
			MkInstr(NOPUSH, AND),
		},
	}
}

// Fig39PupSocket is the figure 3-9 example: "This filter accepts Pup
// packets with a Pup DstSocket field of 35", using short-circuit
// operations and testing the most selective field first.
//
//	struct enfilter f = {
//	    10, 8,                        /* priority and length */
//	    PUSHWORD+8, PUSHLIT|CAND, 35, /* low word of socket == 35 */
//	    PUSHWORD+7, PUSHZERO|CAND,    /* high word of socket == 0 */
//	    PUSHWORD+1, PUSHLIT|EQ, 2     /* packet type == Pup */
//	};
func Fig39PupSocket() Filter {
	return Filter{
		Priority: 10,
		Program: Program{
			MkInstr(PushWord(8), NOP), MkInstr(PUSHLIT, CAND), 35,
			MkInstr(PushWord(7), NOP), MkInstr(PUSHZERO, CAND),
			MkInstr(PushWord(1), NOP), MkInstr(PUSHLIT, EQ), 2,
		},
	}
}

// DstSocketFilter returns the figure 3-9 style filter for an
// arbitrary 32-bit Pup destination socket, the idiom every user-level
// Pup implementation in §5.1 binds per communication stream.
func DstSocketFilter(priority uint8, socket uint32) Filter {
	return Filter{
		Priority: priority,
		Program: NewBuilder().
			CANDWordEQ(8, uint16(socket)).     // low word first: most selective
			CANDWordEQ(7, uint16(socket>>16)). // then high word
			WordEQ(1, PupEtherType).           // then packet type
			MustProgram(),
	}
}
