package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
)

// minPasses is the fewest passes a run makes, whatever its measured
// time: per-item medians need three passes to outvote one disturbed pass.
const minPasses = 3

// morePasses reports whether the run makes another pass: while it has
// fewer than minPasses, or while one more as long as the last still fits
// the run's measured time.
func morePasses(done int, start time.Time, last, budget time.Duration) bool {
	return done < minPasses || time.Since(start)+last <= budget
}

// endToEnd sets the metrics every untraced run reports, and notes which
// percentile each latency metric really reports. Every pass measures the
// same items in the same order (see alignedMedian), so each latency
// percentile is taken over the items' medians across passes.
func endToEnd(o *outcome, setups, walls, cpus []float64, rss float64, query, fresh []Dist) {
	m := o.Metrics
	m.Set("setup_s", "s", median(setups))
	m.Set("run_s", "s", median(walls))
	m.Set("cpu_s", "s", median(cpus))
	m.Set("peak_rss_mb", "MiB", rss)
	for _, l := range []struct {
		name string
		d    []Dist
		want float64
	}{
		{"query_p50_ms", query, 0.5}, {"query_p99_ms", query, 0.99},
		{"freshness_p50_ms", fresh, 0.5}, {"freshness_p90_ms", fresh, 0.9},
	} {
		med := alignedMedian(l.d)
		q, v, n := med.Tail(l.want)
		m.Set(l.name, "ms", v)
		o.notef("%s: p%g over %d items, each the median of %d passes", l.name, q*100, n, len(l.d))
	}
}

// runBatch runs reproduce or wire. Untraced: passes of experiment.New +
// Run (+ artifacts and reads) until the measured time is spent. Traced:
// one untraced pass as the overhead baseline, then one traced pass.
func runBatch(ctx context.Context, b batchSpec, budget time.Duration, traced bool) (*outcome, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	o := &outcome{Result: Result{Correct: true, Metrics: Metrics{}}}
	var want *batchPass
	if b.Wire {
		// The wire run must equal a direct-mode run of the same days.
		direct := b
		direct.Wire, direct.Reads = false, 0
		if want, _, err = untracedBatch(ctx, direct); err != nil {
			return nil, err
		}
	}
	// mismatched counts artifacts whose digest differs from the record.
	mismatched := 0
	check := func(p *batchPass, label string) bool {
		ok := true
		if b.Wire {
			if table1Points(p.Table1) != table1Points(want.Table1) || p.Dets != want.Dets {
				o.fail("%s: wire Table 1 data points or per-day detections differ from the direct-mode run", label)
				ok = false
			}
			if wc, rec := g.Wire[goldenKey(b)]; !rec {
				o.notef("no recorded wire counts for %s", goldenKey(b))
			} else if wc.Queries != p.Net.Queries || wc.Resolutions != p.Net.Resolutions {
				o.fail("%s: %d queries / %d resolutions, recorded unwrapped run has %d / %d",
					label, p.Net.Queries, p.Net.Resolutions, wc.Queries, wc.Resolutions)
				ok = false
			}
			return ok
		}
		rec, found := g.Reproduce[goldenKey(b)]
		if !found {
			o.fail("%s: no recorded digest for %s", label, goldenKey(b))
			return false
		}
		if len(rec) != len(p.Parts) {
			o.fail("%s: %d artifacts, recorded %d", label, len(p.Parts), len(rec))
			return false
		}
		for i, part := range p.Parts {
			if part != rec[i] {
				o.fail("%s: %s digest %s, recorded %s", label, part[0], part[1], rec[i][1])
				ok = false
				mismatched++
			}
		}
		why, dev := checkBytes(table1Bytes(p.Table1), g.Table1Bytes[goldenKey(b)])
		if why != "" {
			o.fail("%s: table1_bytes: %s", label, why)
			ok = false
			mismatched++
		} else if dev != 0 {
			o.notef("%s: Table 1's compressed bytes are %.3f%% from the one-worker layout (they depend on worker commit order)", label, 100*dev)
		}
		return ok
	}
	// account charges one checked pass to attempted/failed: on wire
	// every resolution is an operation and a give-up a failure; on
	// reproduce every artifact checked against its record is one (the
	// digests and Table 1's compressed bytes), and a mismatch a failure.
	account := func(p *batchPass, ok bool) {
		if !b.Wire {
			o.Attempted += int64(len(p.Parts)) + 1
			o.Failed += int64(mismatched)
			mismatched = 0
			return
		}
		bad := p.Net.GaveUp
		if !ok {
			bad = p.Net.Resolutions
		}
		o.Attempted += p.Net.Resolutions
		o.Failed += bad
	}

	if traced {
		base, _, err := untracedBatch(ctx, b)
		if err != nil {
			return nil, err
		}
		account(base, check(base, "untraced pass"))
		tp, m, err := tracedBatch(ctx, b)
		if err != nil {
			return nil, err
		}
		account(tp, check(tp, "traced pass"))
		m.Set("trace_overhead_pct", "%", 100*(tp.Wall.Seconds()-base.Wall.Seconds())/base.Wall.Seconds())
		m.Set("failed_ratio", "ratio", safeDiv(float64(o.Failed), float64(o.Attempted)))
		o.Metrics = m
		o.notef("traced wall %.3fs, untraced %.3fs, unattributed %.3fs",
			tp.Wall.Seconds(), base.Wall.Seconds(), m["unattributed_s"].Value)
		return o, nil
	}

	var setups, walls, cpus []float64
	var query, fresh []Dist
	start := time.Now()
	for pass := 0; ; pass++ {
		// Set-ups are spread over the run so one slow moment of the
		// machine cannot move their median.
		for i := 0; i < setupPerPass; i++ {
			_, s, err := newRunner(b.config(&netCounts{}))
			if err != nil {
				return nil, err
			}
			setups = append(setups, s.Seconds())
		}
		p, s, err := untracedBatch(ctx, b)
		if err != nil {
			return nil, err
		}
		account(p, check(p, fmt.Sprintf("pass %d", pass)))
		setups = append(setups, s.Seconds())
		walls = append(walls, p.Wall.Seconds())
		cpus = append(cpus, p.CPU.Seconds())
		query = append(query, p.ReadLat)
		fresh = append(fresh, p.DayLat)
		o.notef("pass %d: wall %.3fs cpu %.3fs read p50 %.4fms", pass, p.Wall.Seconds(), p.CPU.Seconds(), p.ReadLat.Quantile(0.5))
		runtime.GC()
		if !morePasses(len(walls), start, p.Wall, budget) {
			break
		}
	}
	o.notef("%d passes; failed_ratio %g", len(walls), safeDiv(float64(o.Failed), float64(o.Attempted)))
	endToEnd(o, setups, walls, cpus, peakRSSMB(), query, fresh)
	return o, nil
}

// runServe runs serve-live: live passes until the measured time is
// spent (traced: one untraced baseline pass and one traced pass), then
// checks every pass's converged answers against a rebuilt index.
func runServe(ctx context.Context, s serveSpec, budget time.Duration, traced bool) (*outcome, error) {
	if _, err := os.Stat(s.fixture()); err != nil {
		return nil, fmt.Errorf("boot snapshot missing (run with -prepare first): %w", err)
	}
	e, err := newServeEnv(s)
	if err != nil {
		return nil, err
	}
	o := &outcome{Result: Result{Correct: true, Metrics: Metrics{}}}
	var passes []*livePass
	var setups []float64
	// Extra boots so that setup_s is a median of several set-ups.
	for i := 0; i < 2; i++ {
		ls, bt, err := e.boot(nil)
		if err != nil {
			return nil, err
		}
		ls.close()
		setups = append(setups, bt.total.Seconds())
	}
	start := time.Now()
	for pass := 0; ; pass++ {
		p, err := e.runLive(ctx, pass, traced && pass == 1)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		setups = append(setups, p.Boot.total.Seconds())
		runtime.GC()
		if traced {
			if pass == 1 {
				break
			}
			continue
		}
		if !morePasses(len(passes), start, p.Wall+p.Boot.total, budget) {
			break
		}
	}
	rss := peakRSSMB()
	last := passes[len(passes)-1]
	ref, err := e.reference(last.coordDir)
	if err != nil {
		return nil, err
	}
	for i, p := range passes {
		ok := p.Answers == ref
		if !ok {
			o.fail("pass %d: live answers differ from the index rebuilt over snapshot + spools", i)
		}
		if p.Applied != len(e.parts) || p.Coord.Failed != 0 {
			o.fail("pass %d: applied %d of %d partitions, %d failed", i, p.Applied, len(e.parts), p.Coord.Failed)
			ok = false
		}
		if p.Retried > 0 {
			o.notef("pass %d: %d partitions re-leased after their lease expired", i, p.Retried)
		}
		bad := int64(p.Failed)
		if !ok {
			bad = int64(p.Sent)
		}
		o.Attempted += int64(p.Sent)
		o.Failed += bad
		os.RemoveAll(p.coordDir)
	}

	if traced {
		base, tp := passes[0], passes[1]
		m := o.Metrics
		var opens, builds []float64
		for _, p := range passes {
			opens = append(opens, p.Boot.open.Seconds())
			builds = append(builds, p.Boot.build.Seconds())
		}
		m.Set("store.open_s", "s", median(opens))
		m.Set("api.index_build_s", "s", median(builds))
		m.Set("measure.run_partition_s", "s", tp.RunPart.Seconds())
		m.Set("coord.committed", "count", float64(tp.Coord.Committed))
		m.Set("coord.failed", "count", float64(tp.Coord.Failed))
		// A pass polls a few dozen times, too few for the ten-beyond
		// rule at p90, so both are plain quantiles over its polls.
		m.Set("follow.poll_s.p50", "s", tp.PollS.Quantile(0.5))
		m.Set("follow.poll_s.p90", "s", tp.PollS.Quantile(0.9))
		o.notef("follow.poll_s: p50 and p90 over %d polls", tp.PollS.N())
		m.Set("follow.partitions_applied", "count", float64(tp.Applied))
		m.Set("api.publish_s", "s", tp.Publish.Seconds())
		for _, route := range []string{"domain", "series", "day"} {
			v := 0.0
			if d := tp.Handler[route]; d != nil {
				_, v, _ = d.Tail(0.99)
			}
			m.Set("api.handler_"+route+"_p99_us", "us", v)
		}
		m.Set("api.cache_hit_ratio", "ratio", safeDiv(float64(tp.CacheHits), float64(tp.CacheHits+tp.CacheMisses)))
		m.Set("api.cache_invalidated", "count", float64(tp.CacheInval))
		_, late, _ := tp.Late.Tail(0.99)
		m.Set("gen.late_p99_ms", "ms", late)
		m.Set("trace_overhead_pct", "%", 100*(tp.Wall.Seconds()-base.Wall.Seconds())/base.Wall.Seconds())
		m.Set("failed_ratio", "ratio", safeDiv(float64(o.Failed), float64(o.Attempted)))
		o.notef("traced live wall %.3fs, untraced %.3fs", tp.Wall.Seconds(), base.Wall.Seconds())
		return o, nil
	}

	var walls, cpus []float64
	var query, fresh []Dist
	for i, p := range passes {
		o.notef("pass %d: wall %.3fs cpu %.3fs query p50 %.3fms p99 %.3fms late p50 %.3fms", i, p.Wall.Seconds(), p.CPU.Seconds(),
			p.Query.Quantile(0.5), p.Query.Quantile(0.99), p.Late.Quantile(0.5))
		walls = append(walls, p.Wall.Seconds())
		cpus = append(cpus, p.CPU.Seconds())
		query = append(query, p.Query)
		fresh = append(fresh, p.Fresh)
	}
	o.notef("%d passes at %.0f req/s; failed_ratio %g", len(passes), s.Rate, safeDiv(float64(o.Failed), float64(o.Attempted)))
	endToEnd(o, setups, walls, cpus, rss, query, fresh)
	return o, nil
}
