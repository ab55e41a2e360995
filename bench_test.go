// Package dpsadopt's root benchmarks regenerate every table and figure of
// the paper's evaluation from a cached reproduction run, one benchmark
// per artifact (see DESIGN.md §4 for the experiment index). Ablation
// benchmarks for the design choices called out in DESIGN.md §5 live next
// to their subsystems (internal/pfx2as, internal/store, internal/dnswire,
// internal/analysis, internal/measure).
//
//	go test -bench=. -benchmem
package dpsadopt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dpsadopt/internal/api"
	"dpsadopt/internal/benchfmt"
	"dpsadopt/internal/chaos"
	"dpsadopt/internal/coord"
	"dpsadopt/internal/core"
	"dpsadopt/internal/dnsclient"
	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/experiment"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/report"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/trace"
	"dpsadopt/internal/transport"
	"dpsadopt/internal/worldsim"
)

// benchRunner is a full-window run at 1:50000 scale, built once. Every
// artifact benchmark regenerates its table or figure from this run.
var (
	benchOnce   sync.Once
	benchShared *experiment.Runner
	benchErr    error
)

func runner(b *testing.B) *experiment.Runner {
	b.Helper()
	benchOnce.Do(func() {
		benchShared, benchErr = experiment.New(experiment.Config{Scale: 50_000, Workers: 4})
		if benchErr == nil {
			benchErr = benchShared.Run(context.Background())
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchShared
}

// quietDay is an anomaly-free day used for discovery benchmarks.
var quietDay = simtime.FromDate(2015, 7, 25)

func BenchmarkTable1DataSet(b *testing.B) {
	r := runner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := r.Table1()
		if len(rows) == 0 {
			b.Fatal("empty table 1")
		}
		report.Table1(io.Discard, rows)
	}
}

func BenchmarkTable2Discovery(b *testing.B) {
	r := runner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Table2(quietDay)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Discovered) != 9 {
			b.Fatal("missing providers")
		}
	}
}

func BenchmarkFigure2DailyUse(b *testing.B) {
	r := runner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := r.Figure2()
		if len(s) != 4 {
			b.Fatal("series missing")
		}
	}
}

func BenchmarkFigure3Breakdown(b *testing.B) {
	r := runner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := r.Figure3()
		if len(p) != 9 {
			b.Fatal("panels missing")
		}
	}
}

func BenchmarkFigure4Distribution(b *testing.B) {
	r := runner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := r.Figure4()
		if f.Namespace["com"] == 0 {
			b.Fatal("empty distribution")
		}
	}
}

func BenchmarkFigure5Growth(b *testing.B) {
	r := runner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := r.Figure5()
		if g.AdoptionGrowth() == 0 {
			b.Fatal("empty growth")
		}
	}
}

func BenchmarkFigure6NLAlexa(b *testing.B) {
	r := runner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := r.Figure6()
		if len(f.NL.Days) == 0 && len(f.Alexa.Days) == 0 {
			b.Fatal("empty fig 6")
		}
	}
}

func BenchmarkFigure7Flux(b *testing.B) {
	r := runner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := r.Figure7()
		if len(p) != 9 {
			b.Fatal("panels missing")
		}
	}
}

func BenchmarkFigure8PeakCDF(b *testing.B) {
	r := runner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := r.Figure8()
		if len(p) != 9 {
			b.Fatal("panels missing")
		}
	}
}

func BenchmarkAnomalyAttribution(b *testing.B) {
	r := runner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := r.Anomalies(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) == 0 {
			b.Fatal("no anomalies")
		}
	}
}

// BenchmarkMeasureDay benchmarks one full measurement day (Stage I–III,
// direct fidelity) on a fresh store.
func BenchmarkMeasureDay(b *testing.B) {
	r := runner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmp := store.New()
		p := measure.New(r.World, tmp, measure.Config{Mode: measure.ModeDirect, Workers: 4})
		if err := p.RunDay(context.Background(), quietDay); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureDayWire benchmarks a wire-fidelity day on a small
// world: every query is a real DNS message through the in-memory network.
// Afterwards it snapshots the obs registry and persists the run's
// throughput and latency quantiles to results/BENCH_obs.json, giving
// future PRs a machine-readable perf trajectory to compare against.
func BenchmarkMeasureDayWire(b *testing.B) {
	w, err := worldsim.New(worldsim.DefaultConfig(400_000))
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.Default()
	before := reg.Snapshot()
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmp := store.New()
		p := measure.New(w, tmp, measure.Config{Mode: measure.ModeWire, Workers: 8, Timeout: 500, Retries: 3})
		if err := p.RunDay(context.Background(), quietDay); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	writeObsBench(b, before, reg.Snapshot(), time.Since(start))
}

// writeObsBench emits results/BENCH_obs.json from two registry snapshots
// bracketing the benchmark loop. Counters are deltas (the registry is
// process-cumulative); quantiles are cumulative over the process, which
// is fine for a trajectory dominated by this benchmark's queries.
func writeObsBench(b *testing.B, before, after obs.Snapshot, elapsed time.Duration) {
	b.Helper()
	queries := after.Counter("dns_client_queries_total") - before.Counter("dns_client_queries_total")
	rows := after.Counter("store_rows_total") - before.Counter("store_rows_total")
	lat := after.Histogram("dns_client_query_seconds")
	doc := map[string]any{
		"bench":           "MeasureDayWire",
		"iterations":      b.N,
		"elapsed_seconds": elapsed.Seconds(),
		"queries":         queries,
		"queries_per_sec": float64(queries) / elapsed.Seconds(),
		"rows":            rows,
		"query_p50_s":     lat.P50,
		"query_p90_s":     lat.P90,
		"query_p99_s":     lat.P99,
		"packets_sent": after.Counter("transport_packets_sent_total") -
			before.Counter("transport_packets_sent_total"),
		"packets_dropped": after.Counter("transport_packets_dropped_total") -
			before.Counter("transport_packets_dropped_total"),
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.MkdirAll("results", 0o755); err != nil {
		b.Logf("BENCH_obs.json not written: %v", err)
		return
	}
	if err := os.WriteFile("results/BENCH_obs.json", append(raw, '\n'), 0o644); err != nil {
		b.Logf("BENCH_obs.json not written: %v", err)
		return
	}
	b.Logf("wrote results/BENCH_obs.json (%d queries, %.0f q/s, p99 %.3fms)",
		queries, float64(queries)/elapsed.Seconds(), lat.P99*1000)
}

// BenchmarkTraceOverhead quantifies what request-scoped tracing costs on
// the wire-fidelity day of BenchmarkMeasureDayWire, at three sampling
// rates: tracing disabled, the default 1% per-domain rate, and 100%.
// The sub-benchmark results are persisted to results/BENCH_trace.json
// with the overhead of each rate relative to off; the 1% rate is the
// one dpsmeasure defaults to and should stay within a few percent.
func BenchmarkTraceOverhead(b *testing.B) {
	w, err := worldsim.New(worldsim.DefaultConfig(400_000))
	if err != nil {
		b.Fatal(err)
	}
	secPerOp := map[string]float64{}
	runTraced := func(b *testing.B, tr *trace.Tracer, key string) {
		trace.SetDefault(tr)
		defer trace.SetDefault(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tmp := store.New()
			p := measure.New(w, tmp, measure.Config{Mode: measure.ModeWire, Workers: 8, Timeout: 500, Retries: 3})
			ctx, sp := tr.StartRoot(context.Background(), "experiment.day", trace.Str("day", quietDay.String()))
			if err := p.RunDay(ctx, quietDay); err != nil {
				b.Fatal(err)
			}
			sp.End()
		}
		b.StopTimer()
		secPerOp[key] = b.Elapsed().Seconds() / float64(b.N)
	}
	b.Run("off", func(b *testing.B) { runTraced(b, nil, "off") })
	b.Run("sample1pct", func(b *testing.B) {
		runTraced(b, trace.New(trace.Config{Sample: 0.01, Exporters: []trace.Exporter{trace.NewJSONL(io.Discard)}}), "sample1pct")
	})
	b.Run("sample100pct", func(b *testing.B) {
		runTraced(b, trace.New(trace.Config{Sample: 1, Exporters: []trace.Exporter{trace.NewJSONL(io.Discard)}}), "sample100pct")
	})
	writeTraceBench(b, secPerOp)
}

// writeTraceBench persists the tracing-overhead comparison, mirroring
// writeObsBench's role as a machine-readable perf trajectory.
func writeTraceBench(b *testing.B, secPerOp map[string]float64) {
	b.Helper()
	off, ok := secPerOp["off"]
	if !ok || off == 0 {
		b.Log("BENCH_trace.json not written: baseline missing")
		return
	}
	overhead := func(key string) float64 {
		return (secPerOp[key] - off) / off * 100
	}
	doc := map[string]any{
		"bench":                     "TraceOverhead",
		"day_seconds_off":           off,
		"day_seconds_sample1pct":    secPerOp["sample1pct"],
		"day_seconds_sample100pct":  secPerOp["sample100pct"],
		"overhead_pct_sample1pct":   overhead("sample1pct"),
		"overhead_pct_sample100pct": overhead("sample100pct"),
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.MkdirAll("results", 0o755); err != nil {
		b.Logf("BENCH_trace.json not written: %v", err)
		return
	}
	if err := os.WriteFile("results/BENCH_trace.json", append(raw, '\n'), 0o644); err != nil {
		b.Logf("BENCH_trace.json not written: %v", err)
		return
	}
	b.Logf("wrote results/BENCH_trace.json (1%% sampling overhead %.1f%%, 100%% overhead %.1f%%)",
		overhead("sample1pct"), overhead("sample100pct"))
}

// BenchmarkResolveUnderLoss measures what the hardened resolver pays as
// the network degrades: full iterative resolutions through a wire world
// at 0%, 1% and 10% injected packet loss (fixed chaos seed, backoff and
// retry budget at their defaults, timeout lowered so a lost datagram
// costs milliseconds). Per-rate cost and retransmission counts are
// persisted to results/BENCH_chaos.json as the robustness perf baseline.
func BenchmarkResolveUnderLoss(b *testing.B) {
	w, err := worldsim.New(worldsim.DefaultConfig(400_000))
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 0, len(w.Domains))
	for _, d := range w.Domains {
		names = append(names, d.Name)
	}
	stats := map[string]lossStat{}
	cases := []struct {
		key  string
		loss float64
	}{
		{"loss_0pct", 0},
		{"loss_1pct", 0.01},
		{"loss_10pct", 0.10},
	}
	for _, c := range cases {
		b.Run(c.key, func(b *testing.B) {
			var network transport.Network = transport.NewMem(1)
			if c.loss > 0 {
				network = chaos.Wrap(network, chaos.Config{Loss: c.loss}, 7)
			}
			wire, err := w.BuildWire(quietDay, network)
			if err != nil {
				b.Fatal(err)
			}
			defer wire.Close()
			if cn, ok := network.(*chaos.Network); ok {
				for _, root := range wire.Roots {
					cn.Protect(root.Addr())
				}
			}
			r, err := dnsclient.NewResolver(network, netip.MustParseAddr("10.99.0.1"), wire.Roots, 7)
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			r.Timeout = 20 * time.Millisecond
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Give-ups are counted, not fatal: at 10% loss a resolution
				// can legitimately exhaust its retry budget.
				_, _ = r.Resolve(context.Background(), names[i%len(names)], dnswire.TypeA)
			}
			b.StopTimer()
			stats[c.key] = lossStat{
				SecPerResolve: b.Elapsed().Seconds() / float64(b.N),
				Queries:       r.QueriesSent(),
				Timeouts:      r.TimeoutsSeen(),
				GiveUps:       r.GiveUps(),
			}
		})
	}
	writeChaosBench(b, stats)
}

// lossStat is one BenchmarkResolveUnderLoss sub-benchmark's outcome.
type lossStat struct {
	SecPerResolve float64 `json:"sec_per_resolve"`
	Queries       int64   `json:"queries"`
	Timeouts      int64   `json:"timeouts"`
	GiveUps       int64   `json:"give_ups"`
}

// writeChaosBench persists the loss-rate comparison, mirroring
// writeObsBench's role as a machine-readable perf trajectory.
func writeChaosBench(b *testing.B, stats map[string]lossStat) {
	b.Helper()
	clean, ok := stats["loss_0pct"]
	if !ok || clean.SecPerResolve == 0 {
		b.Log("BENCH_chaos.json not written: clean baseline missing")
		return
	}
	slowdown := func(key string) float64 {
		return stats[key].SecPerResolve / clean.SecPerResolve
	}
	doc := map[string]any{
		"bench":               "ResolveUnderLoss",
		"rates":               stats,
		"slowdown_x_1pct":     slowdown("loss_1pct"),
		"slowdown_x_10pct":    slowdown("loss_10pct"),
		"resolver_timeout_ms": 20,
		"fault_seed":          7,
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.MkdirAll("results", 0o755); err != nil {
		b.Logf("BENCH_chaos.json not written: %v", err)
		return
	}
	if err := os.WriteFile("results/BENCH_chaos.json", append(raw, '\n'), 0o644); err != nil {
		b.Logf("BENCH_chaos.json not written: %v", err)
		return
	}
	b.Logf("wrote results/BENCH_chaos.json (1%% loss %.2fx, 10%% loss %.2fx vs clean)",
		slowdown("loss_1pct"), slowdown("loss_10pct"))
}

// apiBench holds the serving-layer benchmark fixture: a 12-day
// direct-mode measurement indexed once and shared by every sub-bench.
var (
	apiBenchOnce sync.Once
	apiBenchIdx  *api.Index
	apiBenchErr  error
)

func apiIndex(b *testing.B) *api.Index {
	b.Helper()
	apiBenchOnce.Do(func() {
		w, err := worldsim.New(worldsim.DefaultConfig(50_000))
		if err != nil {
			apiBenchErr = err
			return
		}
		s := store.New()
		p := measure.New(w, s, measure.Config{Mode: measure.ModeDirect, Workers: 4})
		for day := simtime.Day(0); day < 12; day++ {
			if err := p.RunDay(context.Background(), day); err != nil {
				apiBenchErr = err
				return
			}
		}
		apiBenchIdx = api.NewIndex(s, core.MustGroundTruth())
	})
	if apiBenchErr != nil {
		b.Fatal(apiBenchErr)
	}
	return apiBenchIdx
}

// apiBenchPaths builds the request population: every detected domain,
// every indexed day, every provider series, and /v1/stats.
func apiBenchPaths(b *testing.B, idx *api.Index) []string {
	b.Helper()
	var paths []string
	for _, dom := range idx.Domains() {
		paths = append(paths, "/v1/domain/"+dom)
	}
	if len(paths) == 0 {
		b.Fatal("bench world produced no detections")
	}
	for _, d := range idx.Days() {
		paths = append(paths, "/v1/day/"+d.String())
	}
	for _, p := range idx.Stats().Providers {
		paths = append(paths, "/v1/provider/"+url.PathEscape(p)+"/series")
	}
	return append(paths, "/v1/stats")
}

// BenchmarkAPIServe measures the serving layer's single-threaded request
// cost under two key distributions (Zipf-skewed, as production query
// logs are, and uniform as the adversarial cache-hostile case) with the
// response cache on and off, plus the query observatory's overhead on
// the cached /v1/domain hot path (acceptance: <= 5%). Results are
// persisted to results/BENCH_api.json with the cache's speedup per
// distribution and the observatory's overhead percentage.
func BenchmarkAPIServe(b *testing.B) {
	idx := apiIndex(b)
	paths := apiBenchPaths(b, idx)
	secPerOp := map[string]float64{}
	run := func(b *testing.B, key string, cfg api.Config, pick func(i int) string) {
		cfg.MaxInflight = 64
		srv := api.NewServer(idx, cfg)
		h := srv.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, pick(i), nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("%s: status %d", pick(i), rec.Code)
			}
		}
		b.StopTimer()
		secPerOp[key] = b.Elapsed().Seconds() / float64(b.N)
	}
	zipfPick := func() func(i int) string {
		z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, uint64(len(paths)-1))
		return func(int) string { return paths[z.Uint64()] }
	}
	uniformPick := func() func(i int) string {
		return func(i int) string { return paths[i%len(paths)] }
	}
	b.Run("zipf/cache", func(b *testing.B) { run(b, "zipf_cache", api.Config{CacheEntries: 4096}, zipfPick()) })
	b.Run("zipf/nocache", func(b *testing.B) { run(b, "zipf_nocache", api.Config{CacheEntries: -1}, zipfPick()) })
	b.Run("uniform/cache", func(b *testing.B) { run(b, "uniform_cache", api.Config{CacheEntries: 4096}, uniformPick()) })
	b.Run("uniform/nocache", func(b *testing.B) { run(b, "uniform_nocache", api.Config{CacheEntries: -1}, uniformPick()) })
	// Observatory overhead on the hot path: cached Zipf-skewed /v1/domain
	// traffic with the full recording pipeline (windowed histogram,
	// slowlog floor check, heavy-hitter sketch) on vs off. The two
	// servers are measured in alternating batches over the same request
	// sequence so clock-speed drift during the run cancels out of the
	// ratio — sequential sub-benchmarks proved noisier than the ~4%
	// effect being measured.
	var domains []string
	for _, p := range paths {
		if strings.HasPrefix(p, "/v1/domain/") {
			domains = append(domains, p)
		}
	}
	b.Run("domain/overhead", func(b *testing.B) {
		srvObs := api.NewServer(idx, api.Config{CacheEntries: 4096, MaxInflight: 64})
		srvOff := api.NewServer(idx, api.Config{CacheEntries: 4096, MaxInflight: 64, ObservatoryOff: true})
		hObs, hOff := srvObs.Handler(), srvOff.Handler()
		z := rand.NewZipf(rand.New(rand.NewSource(2)), 1.2, 1, uint64(len(domains)-1))
		serve := func(h http.Handler, batch []string) time.Duration {
			start := time.Now()
			for _, p := range batch {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: status %d", p, rec.Code)
				}
			}
			return time.Since(start)
		}
		const batchSize = 512
		batch := make([]string, 0, batchSize)
		var tObs, tOff time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += batchSize {
			n := batchSize
			if left := b.N - done; left < n {
				n = left
			}
			batch = batch[:0]
			for i := 0; i < n; i++ {
				batch = append(batch, domains[z.Uint64()])
			}
			tObs += serve(hObs, batch)
			tOff += serve(hOff, batch)
		}
		b.StopTimer()
		secPerOp["domain_obs"] = tObs.Seconds() / float64(b.N)
		secPerOp["domain_noobs"] = tOff.Seconds() / float64(b.N)
		overhead := (tObs.Seconds() - tOff.Seconds()) / tOff.Seconds() * 100
		b.ReportMetric(overhead, "overhead_%")
	})
	writeAPIBench(b, secPerOp, len(paths))
}

// writeAPIBench persists the serving benchmark, mirroring writeObsBench's
// role as a machine-readable perf trajectory.
func writeAPIBench(b *testing.B, secPerOp map[string]float64, keys int) {
	b.Helper()
	if secPerOp["zipf_cache"] == 0 || secPerOp["zipf_nocache"] == 0 {
		b.Log("BENCH_api.json not written: sub-benchmarks missing")
		return
	}
	qps := func(key string) float64 { return 1 / secPerOp[key] }
	doc := map[string]any{
		"bench":                   "APIServe",
		"request_keys":            keys,
		"qps_zipf_cache":          qps("zipf_cache"),
		"qps_zipf_nocache":        qps("zipf_nocache"),
		"qps_uniform_cache":       qps("uniform_cache"),
		"qps_uniform_nocache":     qps("uniform_nocache"),
		"cache_speedup_zipf_x":    secPerOp["zipf_nocache"] / secPerOp["zipf_cache"],
		"cache_speedup_uniform_x": secPerOp["uniform_nocache"] / secPerOp["uniform_cache"],
	}
	if secPerOp["domain_noobs"] > 0 {
		doc["qps_domain_observatory"] = qps("domain_obs")
		doc["qps_domain_no_observatory"] = qps("domain_noobs")
		doc["window_overhead_pct_domain"] = (secPerOp["domain_obs"] - secPerOp["domain_noobs"]) /
			secPerOp["domain_noobs"] * 100
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.MkdirAll("results", 0o755); err != nil {
		b.Logf("BENCH_api.json not written: %v", err)
		return
	}
	if err := os.WriteFile("results/BENCH_api.json", append(raw, '\n'), 0o644); err != nil {
		b.Logf("BENCH_api.json not written: %v", err)
		return
	}
	b.Logf("wrote results/BENCH_api.json (zipf: %.0f q/s cached, %.1fx speedup)",
		qps("zipf_cache"), secPerOp["zipf_nocache"]/secPerOp["zipf_cache"])
	if ov, ok := doc["window_overhead_pct_domain"].(float64); ok {
		b.Logf("observatory overhead on cached /v1/domain: %.2f%%", ov)
	}
}

// detectBench collects the numbers both detection benchmarks produce so
// writeDetectBench can persist them together. Whichever benchmark runs
// last writes the file; fields a skipped benchmark never filled stay
// zero. The cmd/dpsbench harness writes the same benchfmt schema from a
// full GOMAXPROCS sweep — these benchmarks only cover the current
// GOMAXPROCS.
var detectBench struct {
	dayEngine *benchfmt.DayEngine
	sweep     []benchfmt.DetectCell
}

// benchLoop runs fn b.N times and reports wall nanoseconds and heap
// allocations per op (sub-benchmark results are not readable in-process,
// so the JSON capture measures directly).
func benchLoop(b *testing.B, fn func()) (nsPerOp, allocsPerOp float64) {
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		fn()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	n := float64(b.N)
	return float64(elapsed.Nanoseconds()) / n, float64(ms1.Mallocs-ms0.Mallocs) / n
}

// BenchmarkDetectDay benchmarks the §3.3 detection scan over one stored
// day of .com: the ID-native engine against the retained string-keyed
// baseline it replaced.
func BenchmarkDetectDay(b *testing.B) {
	r := runner(b)
	tmp, err := r.MaterializeDay(quietDay)
	if err != nil {
		b.Fatal(err)
	}
	refs := core.MustGroundTruth()
	de := &benchfmt.DayEngine{}
	b.Run("id", func(b *testing.B) {
		de.IDNsOp, de.IDAllocsOp = benchLoop(b, func() {
			det, err := core.Detect(tmp, core.Partition{Source: "com", Day: quietDay}, refs)
			if err != nil || det.DomainsMeasured == 0 {
				b.Fatal("nothing measured")
			}
		})
	})
	b.Run("baseline", func(b *testing.B) {
		de.BaselineNsOp, de.BaselineAllocsOp = benchLoop(b, func() {
			det := core.DetectDayBaseline(tmp, "com", quietDay, refs)
			if det.DomainsMeasured == 0 {
				b.Fatal("nothing measured")
			}
		})
	})
	if de.IDNsOp > 0 {
		de.SpeedupX = de.BaselineNsOp / de.IDNsOp
	}
	if de.IDAllocsOp > 0 {
		de.AllocsRatioX = de.BaselineAllocsOp / de.IDAllocsOp
	}
	detectBench.dayEngine = de
	writeDetectBench(b)
}

// BenchmarkDetectRange benchmarks the day-sharded fan-out over a
// multi-day, all-source store at several worker counts.
func BenchmarkDetectRange(b *testing.B) {
	r := runner(b)
	tmp := store.New()
	p := measure.New(r.World, tmp, measure.Config{Mode: measure.ModeDirect, Workers: 4})
	const benchDays = 4
	for i := 0; i < benchDays; i++ {
		if err := p.RunDay(context.Background(), quietDay+simtime.Day(i)); err != nil {
			b.Fatal(err)
		}
	}
	refs := core.MustGroundTruth()
	parts := core.Partitions(tmp)
	counts := []int{1, 2, 4}
	if gp := runtime.GOMAXPROCS(0); gp != 1 && gp != 2 && gp != 4 {
		counts = append(counts, gp)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var agg core.RangeStats
			var ms0, ms1 runtime.MemStats
			b.ReportAllocs()
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dets, st := core.DetectRangeStats(context.Background(), tmp, parts, refs, workers)
				if len(dets) == 0 || dets[0] == nil {
					b.Fatal("no detections")
				}
				agg.Add(st)
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			cell := benchfmt.DetectCell{
				Gomaxprocs:       runtime.GOMAXPROCS(0),
				Workers:          agg.Workers,
				Iters:            b.N,
				Partitions:       len(parts),
				Rows:             agg.Rows / int64(b.N),
				WallSeconds:      agg.Wall.Seconds(),
				PartitionsPerSec: agg.PartitionsPerSec(),
				Utilization:      agg.Utilization(),
				ScanSeconds:      agg.Scan.Seconds(),
				MergeSeconds:     agg.Merge.Seconds(),
				QueueWaitSeconds: agg.QueueWait.Seconds(),
				BarrierSeconds:   agg.Barrier.Seconds(),
			}
			if agg.Partitions > 0 {
				cell.AllocsPerPartition = float64(ms1.Mallocs-ms0.Mallocs) / float64(agg.Partitions)
			}
			if cell.WallSeconds > 0 {
				cell.RowsPerSec = float64(agg.Rows) / cell.WallSeconds
			}
			// The harness reruns the closure while calibrating b.N; keep
			// only the final (longest) run per cell.
			for i := range detectBench.sweep {
				if detectBench.sweep[i].Gomaxprocs == cell.Gomaxprocs &&
					detectBench.sweep[i].Workers == cell.Workers {
					detectBench.sweep[i] = cell
					return
				}
			}
			detectBench.sweep = append(detectBench.sweep, cell)
		})
	}
	writeDetectBench(b)
}

// writeDetectBench persists the detection engine numbers the README perf
// note and DESIGN.md §9–§10 quote, in the same row-per-cell schema the
// cmd/dpsbench sweep harness writes.
func writeDetectBench(b *testing.B) {
	doc := &benchfmt.DetectDoc{
		Bench:     "detect",
		Schema:    benchfmt.DetectSchema,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Source:    "go test -bench",
		World:     "shared 1:50000 runner world, 4 quiet days",
		DayEngine: detectBench.dayEngine,
		Sweep:     detectBench.sweep,
	}
	doc.FillEfficiency()
	if err := doc.Write("results/BENCH_detect.json"); err != nil {
		b.Logf("BENCH_detect.json not written: %v", err)
		return
	}
	if de := doc.DayEngine; de != nil && de.BaselineNsOp > 0 {
		b.Logf("wrote results/BENCH_detect.json (%.1fx faster, %.0fx fewer allocs than baseline)",
			de.SpeedupX, de.AllocsRatioX)
	} else {
		b.Logf("wrote results/BENCH_detect.json (%d sweep cells)", len(doc.Sweep))
	}
}

// BenchmarkFollowApply is the live-follower headroom benchmark: folding
// one freshly committed day into an 11-day serving index via the delta
// path (core.Detect on the new partitions + api.Index.Apply) against
// the full rebuild (api.NewIndex over the combined store) that the
// follower replaces. The acceptance floor is 10x: a day must land at
// least an order of magnitude cheaper than a cold rebuild, or live
// serving degenerates into periodic restarts. Both costs and the ratio
// are persisted to results/BENCH_follow.json (schema follow/v1).
func BenchmarkFollowApply(b *testing.B) {
	w, err := worldsim.New(worldsim.DefaultConfig(50_000))
	if err != nil {
		b.Fatal(err)
	}
	const baseDays = 60
	base := store.New()
	p := measure.New(w, base, measure.Config{Mode: measure.ModeDirect, Workers: 4})
	for day := simtime.Day(0); day < baseDays; day++ {
		if err := p.RunDay(context.Background(), day); err != nil {
			b.Fatal(err)
		}
	}
	// The new day arrives as its own self-contained store, exactly the
	// shape of a coordinator spool (or the tail of a grown dataset).
	deltaStore := store.New()
	pd := measure.New(w, deltaStore, measure.Config{Mode: measure.ModeDirect, Workers: 4})
	if err := pd.RunDay(context.Background(), baseDays); err != nil {
		b.Fatal(err)
	}
	refs := core.MustGroundTruth()
	combined := store.New()
	combined.Absorb(base)
	combined.Absorb(deltaStore)
	deltaParts := core.Partitions(deltaStore)
	baseIdx := api.NewIndex(base, refs)

	doc := &benchfmt.FollowDoc{
		NumCPU:          runtime.NumCPU(),
		GoVersion:       runtime.Version(),
		World:           fmt.Sprintf("synthetic scale=1:50000 days=%d+1", baseDays),
		BaseDays:        baseDays,
		BasePartitions:  len(core.Partitions(base)),
		DeltaPartitions: len(deltaParts),
	}
	b.Run("delta", func(b *testing.B) {
		doc.ApplyNsOp, doc.ApplyAllocsOp = benchLoop(b, func() {
			ups := make([]api.PartitionUpdate, 0, len(deltaParts))
			for _, part := range deltaParts {
				det, err := core.Detect(deltaStore, part, refs)
				if err != nil {
					b.Fatal(err)
				}
				ups = append(ups, api.PartitionUpdate{Source: part.Source, Day: part.Day, Det: det})
			}
			next, delta := baseIdx.Apply(ups)
			if len(next.Days()) != baseDays+1 || delta == nil {
				b.Fatal("delta apply did not extend the index")
			}
			doc.DomainsTouched = len(delta.Domains)
		})
	})
	b.Run("rebuild", func(b *testing.B) {
		doc.RebuildNsOp, doc.RebuildAllocsOp = benchLoop(b, func() {
			idx := api.NewIndex(combined, refs)
			if len(idx.Days()) != baseDays+1 {
				b.Fatal("rebuild missing the new day")
			}
		})
	})
	doc.FillSpeedup()
	if err := doc.Write("results/BENCH_follow.json"); err != nil {
		b.Logf("BENCH_follow.json not written: %v", err)
		return
	}
	b.ReportMetric(doc.SpeedupX, "speedup_x")
	b.Logf("wrote results/BENCH_follow.json (delta %.2fms vs rebuild %.2fms: %.1fx, floor 10x)",
		doc.ApplyNsOp/1e6, doc.RebuildNsOp/1e6, doc.SpeedupX)
	if doc.SpeedupX < 10 {
		b.Errorf("delta apply only %.1fx faster than rebuild, want >= 10x", doc.SpeedupX)
	}
}

// BenchmarkWorldDay benchmarks computing one day of world state (every
// domain's DNS configuration plus the day's RIB).
func BenchmarkWorldDay(b *testing.B) {
	r := runner(b)
	w := r.World
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rib := w.RIBForDay(quietDay)
		if rib.Len() == 0 {
			b.Fatal("empty RIB")
		}
		for _, d := range w.Domains {
			_ = w.StateFor(d, quietDay)
		}
	}
}

// BenchmarkCoordinator drives the same (source, day) partition set
// through the internal/coord plane fault-free and under the seeded
// worker-crash scenario: one cell per phase with exactly-once
// accounting, end-to-end slowdown, and the re-lease latency abandoned
// partitions waited before another worker adopted them. Both cells are
// persisted to results/BENCH_coord.json (schema coord/v1) as the
// coordination robustness baseline.
func BenchmarkCoordinator(b *testing.B) {
	world, err := worldsim.New(worldsim.DefaultConfig(400_000))
	if err != nil {
		b.Fatal(err)
	}
	const coordDays = 3
	probe := measure.New(world, store.New(), measure.Config{Mode: measure.ModeDirect, Workers: 1})
	var parts []coord.Partition
	for d := 0; d < coordDays; d++ {
		day := world.Cfg.Window.Start + simtime.Day(d)
		for _, src := range probe.DaySources(day) {
			parts = append(parts, coord.Partition{Source: src, Day: day})
		}
	}
	work := func(ctx context.Context, p coord.Partition, attempt int) (*store.Store, error) {
		s := store.New()
		pipe := measure.New(world, s, measure.Config{Mode: measure.ModeDirect, Workers: 1})
		if err := pipe.RunPartition(ctx, p.Source, p.Day); err != nil {
			return nil, err
		}
		return s, nil
	}

	const (
		coordWorkers   = 3
		coordLeaseTTL  = 150 * time.Millisecond
		coordHeartbeat = 30 * time.Millisecond
	)
	phases := []struct {
		key      string
		scenario string
		seed     uint64
	}{
		{"clean", "", 0},
		{"worker_crash", "worker-crash", 11},
	}
	cells := map[string]benchfmt.CoordCell{}
	for _, ph := range phases {
		b.Run(ph.key, func(b *testing.B) {
			var cell benchfmt.CoordCell
			for i := 0; i < b.N; i++ {
				cell = runCoordPhase(b, parts, work, ph.scenario, ph.seed,
					coordWorkers, coordLeaseTTL, coordHeartbeat)
			}
			b.ReportMetric(cell.PartitionsPerSec, "partitions/s")
			if cell.ReleaseCount > 0 {
				b.ReportMetric(cell.ReleaseMeanSecs*1000, "release-ms")
			}
			cells[ph.key] = cell
		})
	}
	writeCoordBench(b, cells, coordDays, coordLeaseTTL, coordHeartbeat)
}

// runCoordPhase runs one full coordinated pass over parts and reduces
// it to a benchfmt.CoordCell, diffing the process-wide coord metrics
// around the run to isolate this phase's lease-recovery numbers.
func runCoordPhase(b *testing.B, parts []coord.Partition, work coord.WorkFunc,
	scenario string, seed uint64, workers int, ttl, heartbeat time.Duration) benchfmt.CoordCell {
	b.Helper()
	var faults *chaos.CoordFaults
	if scenario != "" {
		sc, err := chaos.Scenario(scenario)
		if err != nil {
			b.Fatal(err)
		}
		faults = chaos.NewCoordFaults(sc, seed)
	}
	cfg := coord.Config{
		Dir:            b.TempDir(),
		Workers:        workers,
		LeaseTTL:       ttl,
		HeartbeatEvery: heartbeat,
		MaxAttempts:    10,
		RetryBackoff:   5 * time.Millisecond,
		Work:           work,
		Faults:         faults,
		Seed:           seed,
	}
	before := obs.Default().Snapshot()
	start := time.Now()
	var c *coord.Coordinator
	restarts := 0
	for {
		var err error
		c, err = coord.New(cfg, parts)
		if err != nil {
			b.Fatal(err)
		}
		err = c.Run(context.Background())
		if errors.Is(err, coord.ErrRestart) {
			restarts++
			continue
		}
		if err != nil {
			b.Fatalf("Run(%q): %v", scenario, err)
		}
		break
	}
	wall := time.Since(start)
	after := obs.Default().Snapshot()
	stats := c.Stats()
	if stats.Committed != len(parts) {
		b.Fatalf("phase %q committed %d of %d partitions", scenario, stats.Committed, len(parts))
	}
	retried := 0
	for _, row := range c.Ledger() {
		if row.Attempts > 1 {
			retried++
		}
	}
	_, damaged, err := c.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	relBefore := before.Histogram("coord_release_latency_seconds")
	relAfter := after.Histogram("coord_release_latency_seconds")
	relCount := int64(relAfter.Count) - int64(relBefore.Count)
	relMean := 0.0
	if relCount > 0 {
		relMean = (relAfter.Sum - relBefore.Sum) / float64(relCount)
	}
	counterDelta := func(name string) int64 {
		return after.Counter(name) - before.Counter(name)
	}
	return benchfmt.CoordCell{
		Scenario:          scenario,
		Workers:           workers,
		Seed:              seed,
		Partitions:        len(parts),
		Committed:         stats.Committed,
		Retried:           retried,
		Restarts:          restarts,
		WallSeconds:       wall.Seconds(),
		PartitionsPerSec:  float64(stats.Committed) / wall.Seconds(),
		ReleaseCount:      relCount,
		ReleaseMeanSecs:   relMean,
		RecoveredSpools:   counterDelta("coord_recovered_spools_total"),
		DupCommits:        counterDelta("coord_dup_commits_total"),
		FencedCommits:     counterDelta("coord_fenced_commits_total"),
		JournalReplays:    counterDelta("coord_journal_replays_total"),
		ReplayedRequeues:  counterDelta("coord_replay_requeues_total"),
		QuarantinedSpools: len(damaged),
	}
}

// writeCoordBench persists the clean/worker-crash comparison, mirroring
// writeChaosBench's role as a machine-readable robustness trajectory.
func writeCoordBench(b *testing.B, cells map[string]benchfmt.CoordCell, days int, ttl, heartbeat time.Duration) {
	b.Helper()
	clean, haveClean := cells["clean"]
	crash, haveCrash := cells["worker_crash"]
	if !haveClean || !haveCrash {
		b.Log("BENCH_coord.json not written: a phase was filtered out")
		return
	}
	doc := &benchfmt.CoordDoc{
		NumCPU:           runtime.NumCPU(),
		GoVersion:        runtime.Version(),
		World:            fmt.Sprintf("synthetic scale=1:400000 days=%d", days),
		LeaseTTLSeconds:  ttl.Seconds(),
		HeartbeatSeconds: heartbeat.Seconds(),
		Cells:            []benchfmt.CoordCell{clean, crash},
	}
	doc.FillSlowdown()
	if err := doc.Write("results/BENCH_coord.json"); err != nil {
		b.Logf("BENCH_coord.json not written: %v", err)
		return
	}
	b.Logf("wrote results/BENCH_coord.json (worker-crash %.2fx slower, %d retried, re-lease mean %.0fms)",
		crash.SlowdownX, crash.Retried, crash.ReleaseMeanSecs*1000)
}
