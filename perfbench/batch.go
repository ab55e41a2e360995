package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"dpsadopt/internal/core"
	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/experiment"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/report"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/transport"
	"dpsadopt/internal/worldsim"
)

// batchSpec sizes one batch workload: a streaming reproduction in direct
// mode (reproduce) or over the wire stack (wire).
type batchSpec struct {
	Wire  bool
	Scale int
	Days  int // 0 = the full 550-day window
	Seed  int64
	// Workers is the measurement worker count (0 = the runner's default).
	Workers int
	// Reads is how many domain-history reads follow each pass.
	Reads int
	// Artifacts renders every dpsreport artifact after the pass.
	Artifacts bool
}

const reportSamples = 24 // dpsreport's default -samples

// quietDay is the anomaly-free day Table 2's discovery runs on.
var quietDay = simtime.FromDate(2015, 7, 25)

// config is the runner configuration; wire days get an in-memory
// network seeded from the benchmark seed, behind the counting wrapper.
func (b batchSpec) config(counts *netCounts) experiment.Config {
	cfg := experiment.Config{Scale: b.Scale, Workers: b.Workers, Days: b.Days}
	if b.Wire {
		cfg.Wire = true
		cfg.WireNetwork = func(day simtime.Day) transport.Network {
			return &countNet{inner: transport.NewMem(b.Seed*1_000_003 + int64(day)), counts: counts}
		}
	}
	return cfg
}

// batchPass is one measured pass of a batch workload.
type batchPass struct {
	Wall, CPU time.Duration
	DayLat    Dist // ms per streamed day: freshness
	ReadLat   Dist // ms per domain-history read: query
	Parts     [][2]string
	Table1    []experiment.SourceStats
	Dets      string // digest of every per-day detection count
	Net       measure.NetStats
}

// newRunner times experiment.New: the batch workloads' set-up.
func newRunner(cfg experiment.Config) (*experiment.Runner, time.Duration, error) {
	t := time.Now()
	r, err := experiment.New(cfg)
	return r, time.Since(t), err
}

// untracedBatch runs experiment.New + Run as dpsreport does, then the
// artifacts and the read phase, timing only from outside the calls.
func untracedBatch(ctx context.Context, b batchSpec) (*batchPass, time.Duration, error) {
	counts := &netCounts{}
	cfg := b.config(counts)
	var dayLat Dist
	var last time.Time
	var rd *reader
	cfg.OnDayProgress = func(experiment.DayProgress) {
		dayLat.AddDur(time.Since(last))
		rd.day()
		last = time.Now() // a day's latency leaves out the reads after the day before
	}
	r, setup, err := newRunner(cfg)
	if err != nil {
		return nil, 0, err
	}
	rd = b.newReader(r)
	ph := startPhase()
	last = ph.start
	if err := r.Run(ctx); err != nil {
		return nil, 0, err
	}
	res := &batchPass{DayLat: dayLat, Table1: r.Table1()}
	if b.Artifacts {
		art, err := renderArtifacts(r, res.Table1, &artLayers{})
		if err != nil {
			return nil, 0, err
		}
		res.Parts = art.Parts()
	}
	res.ReadLat = rd.Lat
	res.Wall, res.CPU = ph.stop()
	res.Dets = detections(r)
	for _, a := range r.Accounting() {
		res.Net.Queries += a.Queries
		res.Net.Lost += a.Lost
		res.Net.Resolutions += a.Resolutions
		res.Net.GaveUp += a.GaveUp
	}
	return res, setup, nil
}

// readPage is how many domains one read covers.
const readPage = 64

// reader runs the read phase. A read is one page of domain histories —
// every provider's detection intervals and use class for each of
// readPage domains — the batch counterpart of a run of /v1/domain
// queries. After each day lands in the aggregate the reader answers an
// equal share of the pass's reads, so the reads sample the whole pass
// rather than one moment of it: on a shared machine the speed of these
// memory-bound lookups swings by a third from one fraction of a second
// to the next. Domains are drawn uniformly from every world domain,
// outside the timed part, and every pass reads the same sequence: the
// aggregate has no cache for a skew to exercise, and under a skew the
// seed would set the cost of every page by whether its few hot domains
// happen to have detections.
type reader struct {
	r      *experiment.Runner
	win    simtime.Range
	names  []string
	rng    *rand.Rand
	page   []string
	perDay int
	Lat    Dist // ms per read
	Layer
}

func (b batchSpec) newReader(r *experiment.Runner) *reader {
	// A query names its domain with a string of its own, as a parsed
	// request path does, not with the world's copy.
	names := make([]string, len(r.World.Domains))
	for i, d := range r.World.Domains {
		names[i] = strings.Clone(d.Name)
	}
	win := r.Window()
	days := max(int(win.End-win.Start), 1)
	return &reader{r: r, win: win, names: names, rng: rand.New(rand.NewSource(b.Seed)),
		page: make([]string, readPage), perDay: (b.Reads + days - 1) / days}
}

// day answers one day's share of the reads.
func (rd *reader) day() {
	for i := 0; i < rd.perDay; i++ {
		for j := range rd.page {
			rd.page[j] = rd.names[rd.rng.Intn(len(rd.names))]
		}
		t := time.Now()
		for _, dom := range rd.page {
			for p := range rd.r.Refs.Providers {
				if len(rd.r.Agg.Intervals(p, dom)) > 0 {
					rd.r.Agg.Classify(p, dom, rd.win)
				}
			}
		}
		d := time.Since(t)
		rd.Busy += d
		rd.Lat.AddDur(d)
	}
}

// detections digests every per-day detection count of a run.
func detections(r *experiment.Runner) string {
	h := sha256.New()
	for _, src := range append(worldsim.GTLDs(), "nl", measure.SourceAlexa) {
		for _, d := range r.Agg.Days(src) {
			fmt.Fprintf(h, "%s|%s|%+v\n", src, d, *r.Agg.Counts(src, d))
		}
	}
	return sum(h)
}

// artLayers times the artifact phase by layer.
type artLayers struct {
	table2, anomalies, figures, render Layer
}

// renderArtifacts regenerates every artifact dpsreport prints, rendered
// through report into io.Discard.
func renderArtifacts(r *experiment.Runner, table1 []experiment.SourceStats, l *artLayers) (*Artifacts, error) {
	a := &Artifacts{Table1: table1}
	w := io.Discard
	l.render.Time(func() { report.Table1(w, a.Table1) })
	if r.Window().Contains(quietDay) {
		var err error
		l.table2.Time(func() { a.Table2, err = r.Table2(quietDay) })
		if err != nil {
			return nil, err
		}
		l.render.Time(func() { report.Table2(w, a.Table2) })
	}
	l.figures.Time(func() {
		a.Fig2, a.Fig3, a.Fig4, a.Fig5 = r.Figure2(), r.Figure3(), r.Figure4(), r.Figure5()
		a.Fig6, a.Fig7, a.Fig8 = r.Figure6(), r.Figure7(), r.Figure8()
		a.Classification = r.Classification()
	})
	l.render.Time(func() {
		report.Figure2(w, a.Fig2, reportSamples)
		report.Figure3(w, a.Fig3, reportSamples)
		report.Figure4(w, a.Fig4)
		report.Growth(w, "Figure 5", a.Fig5, reportSamples)
		report.Growth(w, "Figure 6a", a.Fig6.NL, reportSamples)
		report.Growth(w, "Figure 6b", a.Fig6.Alexa, reportSamples)
		report.Figure7(w, a.Fig7)
		report.Figure8(w, a.Fig8)
		report.Classification(w, a.Classification)
	})
	var err error
	l.anomalies.Time(func() { a.Anomalies, err = r.Anomalies(1) })
	if err != nil {
		return nil, err
	}
	l.render.Time(func() { report.Anomalies(w, a.Anomalies) })
	return a, nil
}

// tracedBatch rebuilds Runner.Run's day loop from the same public calls
// in the same order — RunDay, DayStats per source, DetectRangeStats,
// AddDetections, DropDay — and charges each call to its layer.
func tracedBatch(ctx context.Context, b batchSpec) (*batchPass, Metrics, error) {
	counts := &netCounts{captureMax: 4096}
	r, _, err := newRunner(b.config(counts))
	if err != nil {
		return nil, nil, err
	}
	mcfg := measure.Config{Mode: measure.ModeDirect, Workers: r.Cfg.Workers}
	if b.Wire {
		mcfg.Mode = measure.ModeWire
		mcfg.WireNetwork = b.config(counts).WireNetwork
	}
	pipe := measure.New(r.World, r.Store, mcfg)

	var runDay, dayStats, detect, addDet, dropDay Layer
	var dsAlloc uint64
	var rows, compressed int64
	var net measure.NetStats
	var rst core.RangeStats
	stats := make(map[string]*experiment.SourceStats)
	unique := make(map[string]map[uint32]bool)
	dnsQ0 := counterValue("dns_server_queries_total")
	alloc0, gc0 := runtimeCounters()

	rd := b.newReader(r)
	ph := startPhase()
	win := r.Window()
	for day := win.Start; day < win.End; day++ {
		runDay.Time(func() { err = pipe.RunDay(ctx, day) })
		if err != nil {
			return nil, nil, fmt.Errorf("day %s: %w", day, err)
		}
		ns := pipe.LastNetStats()
		net.Queries += ns.Queries
		net.Lost += ns.Lost
		net.Resolutions += ns.Resolutions
		net.GaveUp += ns.GaveUp
		var parts []core.Partition
		for _, src := range r.Store.Sources() {
			var n int
			var bytes int64
			var ids []uint32
			a0, _ := runtimeCounters()
			dayStats.Time(func() { n, bytes, ids = r.Store.DayStats(src, day) })
			a1, _ := runtimeCounters()
			dsAlloc += a1 - a0
			if n == 0 {
				continue
			}
			rows += int64(n)
			compressed += bytes
			st := stats[src]
			if st == nil {
				st = &experiment.SourceStats{Source: src, FirstDay: day}
				stats[src] = st
				unique[src] = make(map[uint32]bool)
			}
			st.Days++
			st.DataPoints += int64(n)
			st.CompressedBytes += bytes
			for _, id := range ids {
				unique[src][id] = true
			}
			parts = append(parts, core.Partition{Source: src, Day: day})
		}
		var dets []*core.DayDetections
		var dst core.RangeStats
		detect.Time(func() { dets, dst = core.DetectRangeStats(ctx, r.Store, parts, r.Refs, 0) })
		rst.Add(dst)
		for pi, det := range dets {
			if det == nil {
				return nil, nil, fmt.Errorf("day %s: detection cancelled", day)
			}
			addDet.Time(func() { err = r.Agg.AddDetections(det) })
			if err != nil {
				return nil, nil, err
			}
			dropDay.Time(func() { r.Store.DropDay(parts[pi].Source, day) })
		}
		r.Agg.SumAny(worldsim.GTLDs(), day)
		rd.day()
	}
	var table1 []experiment.SourceStats
	for _, src := range []string{"com", "net", "org", "nl", measure.SourceAlexa} {
		if st := stats[src]; st != nil {
			st.UniqueSLDs = len(unique[src])
			table1 = append(table1, *st)
		}
	}
	res := &batchPass{Table1: table1, Net: net}
	var al artLayers
	if b.Artifacts {
		art, err := renderArtifacts(r, table1, &al)
		if err != nil {
			return nil, nil, err
		}
		res.Parts = art.Parts()
	}
	res.ReadLat = rd.Lat
	res.Wall, res.CPU = ph.stop()
	res.Dets = detections(r)
	alloc1, gc1 := runtimeCounters()

	m := Metrics{}
	m.Set("measure.run_day_s", "s", runDay.Busy.Seconds())
	m.Set("measure.rows", "count", float64(rows))
	m.Set("store.day_stats_s", "s", dayStats.Busy.Seconds())
	m.Set("store.day_stats_alloc_bytes", "bytes", float64(dsAlloc))
	m.Set("store.compressed_bytes", "bytes", float64(compressed))
	m.Set("store.drop_day_s", "s", dropDay.Busy.Seconds())
	m.Set("analysis.add_detections_s", "s", addDet.Busy.Seconds())
	m.Set("analysis.read_s", "s", rd.Busy.Seconds())
	m.Set("core.detect_s", "s", detect.Busy.Seconds())
	m.Set("core.detect_busy_s", "s", rst.Busy().Seconds())
	m.Set("core.detect_barrier_s", "s", rst.Barrier.Seconds())
	m.Set("core.partitions", "count", float64(rst.Partitions))
	m.Set("experiment.table2_s", "s", al.table2.Busy.Seconds())
	m.Set("experiment.anomalies_s", "s", al.anomalies.Busy.Seconds())
	m.Set("experiment.figures_s", "s", al.figures.Busy.Seconds())
	m.Set("report.render_s", "s", al.render.Busy.Seconds())
	m.Set("runtime.alloc_bytes", "bytes", float64(alloc1-alloc0))
	m.Set("runtime.gc_cycles", "count", float64(gc1-gc0))
	if b.Wire {
		m.Set("measure.us_per_resolution", "us", safeDiv(runDay.Busy.Seconds()*1e6, float64(net.Resolutions)))
		m.Set("dnsclient.resolutions", "count", float64(net.Resolutions))
		m.Set("dnsclient.queries", "count", float64(net.Queries))
		m.Set("dnsclient.lost", "count", float64(net.Lost))
		m.Set("dnsclient.gave_up", "count", float64(net.GaveUp))
		m.Set("dnsclient.queries_per_resolution", "ratio", safeDiv(float64(net.Queries), float64(net.Resolutions)))
		m.Set("transport.datagrams", "count", float64(counts.datagrams.Load()))
		m.Set("transport.bytes", "bytes", float64(counts.bytes.Load()))
		pack, unpack := retimeDNSWire(counts.captured)
		m.Set("dnswire.pack_ns", "ns", pack)
		m.Set("dnswire.unpack_ns", "ns", unpack)
		m.Set("dnsserver.queries", "count", float64(counterValue("dns_server_queries_total")-dnsQ0))
	}
	layers := runDay.Busy + dayStats.Busy + detect.Busy + addDet.Busy + dropDay.Busy + rd.Busy +
		al.table2.Busy + al.anomalies.Busy + al.figures.Busy + al.render.Busy
	m.Set("unattributed_s", "s", (res.Wall - layers).Seconds())
	return res, m, nil
}

// counterValue reads a counter of the program's obs registry.
func counterValue(name string) int64 {
	if v, ok := obs.Default().Lookup(name); ok {
		if c, ok := v.(*obs.Counter); ok {
			return c.Value()
		}
	}
	return 0
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// retimeDNSWire re-times dnswire Unpack and Pack over datagrams captured
// during the pass, in ns per message.
func retimeDNSWire(samples [][]byte) (packNs, unpackNs float64) {
	const rounds = 20
	var msgs []*dnswire.Message
	for _, s := range samples {
		if m, err := dnswire.Unpack(s); err == nil {
			msgs = append(msgs, m)
		}
	}
	if len(msgs) == 0 {
		return 0, 0
	}
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for _, s := range samples {
			dnswire.Unpack(s)
		}
	}
	unpackNs = float64(time.Since(t).Nanoseconds()) / float64(rounds*len(samples))
	t = time.Now()
	for r := 0; r < rounds; r++ {
		for _, m := range msgs {
			m.Pack()
		}
	}
	packNs = float64(time.Since(t).Nanoseconds()) / float64(rounds*len(msgs))
	return packNs, unpackNs
}
