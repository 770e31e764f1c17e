package main

// Isolated probes of internal/filter: each times calls into public
// functions over the workload's own pool and filter set, outside any
// device.  Times are the median over repeated passes; counts come from
// exactly one pass of the pool, so they repeat exactly for a seed.

import (
	"time"

	"repro/internal/filter"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// perOp runs pass — which performs ops operations — at least five
// times and for at least minDur, and returns the median ns per
// operation.
func perOp(minDur time.Duration, ops int, pass func()) float64 {
	var per []float64
	start := now()
	for len(per) < 5 || (now()-start < int64(minDur) && len(per) < 5000) {
		t0 := now()
		pass()
		per = append(per, float64(now()-t0)/float64(ops))
	}
	return median(per)
}

const probeDur = 60 * time.Millisecond

// probeInterp measures the checked interpreter: one filter on a frame
// it accepts, the s3.2 priority scan replayed over the pool in port
// order, and validation.
func probeInterp(pl *pool, filters []filter.Filter, out map[string]float64) {
	hits := poolSize - pl.misses
	out["filter.run_ns"] = perOp(probeDur, hits, func() {
		for i, f := range pl.frames {
			if e := pl.expect[i]; e >= 0 && filter.Run(filters[e].Program, f).Accept {
				sink++
			}
		}
	})

	scan := func(count bool) (applied, instrs uint64) {
		for _, f := range pl.frames {
			for k := range filters {
				r := filter.Run(filters[k].Program, f)
				if count {
					applied++
					instrs += uint64(r.Instrs)
				}
				if r.Accept {
					break
				}
			}
		}
		return
	}
	applied, instrs := scan(true)
	out["filter.scan_filters_per_pkt"] = float64(applied) / poolSize
	out["filter.instrs_per_pkt"] = float64(instrs) / poolSize
	out["filter.scan_ns_per_pkt"] = perOp(probeDur, poolSize, func() { scan(false) })

	out["filter.validate_ns"] = perOp(probeDur, len(filters), func() {
		for k := range filters {
			if _, err := filter.Validate(filters[k].Program, filter.ValidateOptions{}); err == nil {
				sink++
			}
		}
	})
}

// probeTable measures the flat IR and the decision table at the
// workload's filter count, and returns how many pool frames the table
// matched to a filter other than the one they were addressed to.
func probeTable(pl *pool, filters, cold []filter.Filter, out map[string]float64) (mismatches uint64) {
	flat := make([]*filter.FlatProg, len(filters))
	out["filter.compile_flat_us"] = perOp(probeDur, len(filters), func() {
		for k := range filters {
			fp, err := filter.CompileFlat(filters[k].Program, filter.ValidateOptions{}, filter.Env{})
			if err == nil {
				flat[k] = fp
			}
		}
	}) / 1e3
	hits := poolSize - pl.misses
	out["filter.flat_run_ns"] = perOp(probeDur, hits, func() {
		for i, f := range pl.frames {
			if e := pl.expect[i]; e >= 0 && flat[e] != nil && flat[e].Run(f).Accept {
				sink++
			}
		}
	})

	var tbl *filter.Table
	out["filter.table.build_ms"] = perOp(probeDur, 1, func() { tbl = filter.BuildTable(filters) }) / 1e6

	// BuildTable gives filter k slot k, so a frame must match exactly
	// the slot of the port it is addressed to.
	for i, f := range pl.frames {
		m := tbl.Match(f)
		e := pl.expect[i]
		if (e < 0 && len(m) != 0) || (e >= 0 && (len(m) != 1 || m[0] != e)) {
			mismatches++
		}
	}
	out["filter.table.match_ns"] = perOp(probeDur, poolSize, func() {
		for _, f := range pl.frames {
			sink += len(tbl.Match(f))
		}
	})

	var ins, rem []float64
	work := 0
	for k := 0; k < 4*len(cold); k++ {
		t0 := now()
		nt, slot := tbl.Insert(cold[k%len(cold)])
		t1 := now()
		rt := nt.Remove(slot)
		t2 := now()
		ins = append(ins, float64(t1-t0))
		rem = append(rem, float64(t2-t1))
		if k < len(cold) {
			work += rt.Work() - tbl.Work()
		}
	}
	out["filter.table.insert_us"] = median(ins) / 1e3
	out["filter.table.remove_us"] = median(rem) / 1e3
	out["filter.table.work_per_churn"] = float64(work) / float64(len(cold))
	return mismatches
}
