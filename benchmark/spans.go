package main

// The harness's own spans: recorded around the calls into each layer,
// from outside the program under test.  A span carries a name, start,
// end, the span that caused it, and a packet id shared by every span
// of one packet (or one 64-frame batch in the in-process loops).
// Spans stay in memory during the run and are written out at exit.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

type span struct {
	name       uint8
	start, end int64 // harness clock, ns
	id, parent uint32
	pkt        uint64
}

// maxSpans bounds the recorder (about 10 MB).  Each traced phase gets
// an equal share, so the last round is recorded as fully as the first;
// spans past a phase's share are counted, not kept, and the per-layer
// means use the kept ones.
const (
	maxSpans   = 1 << 18
	phaseSpans = maxSpans / (3 * rounds)
)

// recorder collects spans from one goroutine at a time: the phase that
// records hands it over by the same channel or join that ends the
// phase.
type recorder struct {
	names   []string
	nameIdx map[string]uint8
	spans   []span
	limit   int // the current phase may fill spans up to here
	dropped int
}

func newRecorder() *recorder {
	return &recorder{nameIdx: make(map[string]uint8), spans: make([]span, 0, maxSpans)}
}

func (r *recorder) nameID(name string) uint8 {
	id, ok := r.nameIdx[name]
	if !ok {
		id = uint8(len(r.names))
		r.names = append(r.names, name)
		r.nameIdx[name] = id
	}
	return id
}

// beginPhase opens a new phase's share of the recorder.
func (r *recorder) beginPhase() { r.limit = min(len(r.spans)+phaseSpans, maxSpans) }

// add records one span and returns its id (0 when the phase's share is
// used up), to be passed as the parent of its children.
func (r *recorder) add(name string, start, end int64, parent uint32, pkt uint64) uint32 {
	if len(r.spans) >= r.limit {
		r.dropped++
		return 0
	}
	id := uint32(len(r.spans) + 1)
	r.spans = append(r.spans, span{r.nameID(name), start, end, id, parent, pkt})
	return id
}

// addChurn records one open+setfilter+close as a root span and its
// three children, all or none.
func (r *recorder) addChurn(seq uint64, t0, t1, t2, t3 int64) {
	if !r.room(4) {
		return
	}
	id := r.add("churn", t0, t3, 0, seq)
	r.add("churn.open", t0, t1, id, seq)
	r.add("churn.setfilter", t1, t2, id, seq)
	r.add("churn.close", t2, t3, id, seq)
}

// churnLayers reports the mean of each churn step, and their sum.
func (r *recorder) churnLayers(out map[string]float64) (sumNS float64) {
	for _, step := range []string{"open", "setfilter", "close"} {
		mean, _ := r.meanNS("churn." + step)
		out["live.port."+step+"_us"] = mean / 1e3
		sumNS += mean
	}
	return sumNS
}

// room reports whether n more spans fit, so a caller can record all
// the spans of one packet or none.
func (r *recorder) room(n int) bool { return len(r.spans)+n <= r.limit }

// meanNS is the mean duration of the spans called name, and their count.
func (r *recorder) meanNS(name string) (float64, int) {
	id, ok := r.nameIdx[name]
	if !ok {
		return 0, 0
	}
	var sum float64
	n := 0
	for i := range r.spans {
		if r.spans[i].name == id {
			sum += float64(r.spans[i].end - r.spans[i].start)
			n++
		}
	}
	return ratio(sum, float64(n)), n
}

// selfShare is, over every span called name, the summed self time —
// the span's duration minus the part of it its child spans cover —
// over the summed duration.  Children may overlap each other or reach
// outside the parent; only the covered part of the parent counts.
func (r *recorder) selfShare(name string) float64 {
	id, ok := r.nameIdx[name]
	if !ok {
		return 0
	}
	children := make(map[uint32][]int)
	for i := range r.spans {
		if p := r.spans[i].parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	var self, total float64
	for i := range r.spans {
		s := &r.spans[i]
		if s.name != id {
			continue
		}
		total += float64(s.end - s.start)
		self += float64(s.end-s.start) - float64(r.covered(s, children[s.id]))
	}
	return ratio(self, total)
}

// covered is the length of the union of the child intervals, clipped
// to the parent.
func (r *recorder) covered(parent *span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := r.spans[k].start, r.spans[k].end
		if a < parent.start {
			a = parent.start
		}
		if b > parent.end {
			b = parent.end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, hi int64
	hi = parent.start
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			sum += v.b - hi
			hi = v.b
		}
	}
	return sum
}

// write stores the spans as compact rows under dir.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"clock\":\"ns since harness start\",\"dropped\":%d,\n", workload, r.dropped)
	fmt.Fprintf(w, "\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"id\",\"parent\",\"pkt\"],\n\"spans\":[\n")
	for i, s := range r.spans {
		sep := ","
		if i == len(r.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%q,%d,%d,%d,%d,%d]%s\n", r.names[s.name], s.start, s.end, s.id, s.parent, s.pkt, sep)
	}
	fmt.Fprintf(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
