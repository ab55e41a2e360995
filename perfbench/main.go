// Command perfbench is the repository's benchmark. It drives the program
// only through the public functions of its packages and times each layer
// by wrapping the calls into it from here. See README.md.
//
// Usage (from the repository root, normally through run.py):
//
//	perfbench -workload reproduce|wire|serve-live -seed N -seconds S -trace 0|1
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"
)

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	Result
	notes []string
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect and says why.
func (o *outcome) fail(format string, args ...any) {
	o.Correct = false
	o.notef("CHECK FAILED: "+format, args...)
}

// Workload defaults. The held-out input of reproduce and wire is another
// scale divisor (experiment.New fixes the world seed), passed with -scale.
const (
	batchScale    = 50_000
	wireScale     = 100_000
	wireDays      = 60
	serveScale    = 20_000
	serveBaseDays = 400
	serveRate     = 3200
	servePoll     = 500 * time.Millisecond // dpsapi's default -poll
	batchReads    = 20_000
	setupPerPass  = 5 // extra batch set-ups before each pass, for the setup_s median
)

func main() {
	var (
		workload = flag.String("workload", "", "reproduce, wire or serve-live")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 20, "measured time per run")
		traced   = flag.Int("trace", 0, "1 = traced run reporting the per-layer split")
		dir      = flag.String("dir", ".bench_build/work", "directory for fixtures and coordination state")
		scale    = flag.Int("scale", 0, "world scale divisor (0 = the workload default)")
		rate     = flag.Float64("rate", serveRate, "serve-live open-loop request rate per second")
		prepare  = flag.Bool("prepare", false, "build the serve-live boot snapshot and exit")
		record   = flag.Bool("record", false, "print the golden entry for this workload and scale, then exit")
		commit   = flag.String("commit", "unknown", "source revision recorded with the result")
		src      = flag.String("src", "unknown", "hash of the program's sources, keying the serve-live boot snapshot")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition listing the metrics to report")
	)
	flag.Parse()
	budget := time.Duration(*seconds * float64(time.Second))
	ctx := context.Background()

	bs := batchSpec{Scale: batchScale, Seed: *seed, Reads: batchReads}
	ss := serveSpec{Scale: serveScale, BaseDays: serveBaseDays, Seed: *seed, Rate: *rate, Poll: servePoll, Dir: *dir, Src: *src}
	switch *workload {
	case "reproduce":
		bs.Artifacts = true
	case "wire":
		bs.Wire, bs.Scale, bs.Days = true, wireScale, wireDays
	case "serve-live":
	default:
		fatal(fmt.Errorf("unknown -workload %q", *workload))
	}
	if *scale > 0 {
		bs.Scale, ss.Scale = *scale, *scale
	}

	var out *outcome
	var err error
	switch {
	case *prepare:
		if *workload == "serve-live" {
			err = prepareFixture(ss)
		}
		if err != nil {
			fatal(err)
		}
		return
	case *record:
		err = recordGolden(ctx, bs)
		if err != nil {
			fatal(err)
		}
		return
	case *workload == "serve-live":
		out, err = runServe(ctx, ss, budget, *traced == 1)
	default:
		out, err = runBatch(ctx, bs, budget, *traced == 1)
	}
	if err != nil {
		fatal(err)
	}

	out.Metrics, err = conform(*specPath, out.Metrics, *traced == 1)
	if err != nil {
		fatal(err)
	}
	input := map[string]any{"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *traced}
	if *workload == "serve-live" {
		input["scale"], input["base_days"], input["rate"] = ss.Scale, ss.BaseDays, ss.Rate
	} else {
		input["scale"], input["days"] = bs.Scale, bs.Days
	}
	env := map[string]any{
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "commit": *commit,
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	emit(map[string]any{"env": env, "input": input, "notes": out.notes})
	emit(out.Result)
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// conform returns the metrics the benchmark definition lists for the
// run: every end-to-end metric for an untraced run, every per-layer one
// for a traced run. A listed per-layer metric of a layer the workload
// leaves idle reads 0; a missing end-to-end metric, a metric the
// definition does not list, or a unit that disagrees with it is an error.
func conform(path string, m Metrics, traced bool) (Metrics, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	out := Metrics{}
	for _, l := range list {
		got, ok := m[l.Name]
		switch {
		case !ok && !traced:
			return nil, fmt.Errorf("end-to-end metric %s not measured", l.Name)
		case !ok:
			got = Metric{Unit: l.Unit}
		case got.Unit != l.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, %s lists %s", l.Name, got.Unit, path, l.Unit)
		}
		out[l.Name] = got
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not listed in %s", name, path)
		}
	}
	return out, nil
}

// ---- golden values ----

//go:embed golden.json
var goldenJSON []byte

// golden holds the recorded expectations: the reproduce digest and
// Table 1's compressed bytes per source, and the wire run's resolver
// counts (from a run without the counting wrapper), keyed by scale and
// days.
type golden struct {
	Reproduce   map[string][][2]string      `json:"reproduce"`
	Table1Bytes map[string]map[string]int64 `json:"table1_bytes"`
	Wire        map[string]wireCounts       `json:"wire"`
}

type wireCounts struct {
	Queries     int64 `json:"queries"`
	Resolutions int64 `json:"resolutions"`
}

func goldenKey(b batchSpec) string { return strconv.Itoa(b.Scale) + "/" + strconv.Itoa(b.Days) }

func loadGolden() (golden, error) {
	var g golden
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// recordGolden prints the golden entries for a batch workload: the
// reproduce digest and Table 1's compressed bytes, or the wire counts of
// a run on the program's own default network (no counting wrapper).
func recordGolden(ctx context.Context, b batchSpec) error {
	if !b.Wire {
		// One measurement worker writes every partition in task order:
		// the canonical layout Table 1's compressed bytes are pinned to.
		b.Workers = 1
		p, _, err := untracedBatch(ctx, b)
		if err != nil {
			return err
		}
		emit(map[string]any{
			"reproduce":    map[string][][2]string{goldenKey(b): p.Parts},
			"table1_bytes": map[string]map[string]int64{goldenKey(b): table1Bytes(p.Table1)},
		})
		return nil
	}
	cfg := b.config(nil)
	cfg.WireNetwork = nil
	r, _, err := newRunner(cfg)
	if err != nil {
		return err
	}
	if err := r.Run(ctx); err != nil {
		return err
	}
	var wc wireCounts
	for _, a := range r.Accounting() {
		wc.Queries += a.Queries
		wc.Resolutions += a.Resolutions
	}
	emit(map[string]any{"wire": map[string]wireCounts{goldenKey(b): wc}})
	return nil
}
