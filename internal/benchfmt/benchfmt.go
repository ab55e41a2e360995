// Package benchfmt defines the persisted benchmark result schemas under
// results/. Both producers of the detection benchmark — the dpsbench
// sweep harness and the root go-test benchmarks — write through this
// package, so results/BENCH_detect.json has exactly one shape regardless
// of which tool produced it.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// DetectSchema names the current BENCH_detect.json layout: one row per
// (gomaxprocs, workers) sweep cell instead of the flat v1 map.
const DetectSchema = "sweep/v2"

// DetectCell is one sweep cell: DetectRangeStats run to steady state at a
// fixed GOMAXPROCS and worker count.
type DetectCell struct {
	Gomaxprocs int `json:"gomaxprocs"`
	Workers    int `json:"workers"`
	// Iters is how many full DetectRangeStats passes the cell aggregated.
	Iters      int   `json:"iters"`
	Partitions int   `json:"partitions"`
	Rows       int64 `json:"rows"`

	WallSeconds      float64 `json:"wall_seconds"`
	PartitionsPerSec float64 `json:"partitions_per_sec"`
	RowsPerSec       float64 `json:"rows_per_sec"`

	// Utilization is busy/(workers×wall) from core.RangeStats; the stage
	// clocks below are summed over workers and iterations.
	Utilization      float64 `json:"utilization"`
	ScanSeconds      float64 `json:"scan_seconds"`
	MergeSeconds     float64 `json:"merge_seconds"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	BarrierSeconds   float64 `json:"barrier_seconds"`

	AllocsPerPartition float64 `json:"allocs_per_partition"`
	// GCShare is the fraction of the cell's total CPU the garbage
	// collector consumed (runtime/metrics /cpu/classes delta).
	GCShare float64 `json:"gc_share"`
	// EfficiencyPerCore is (pps / baseline pps) / min(gomaxprocs,
	// workers), baseline being the sweep's smallest cell — 1.0 means
	// perfect linear scaling from the baseline.
	EfficiencyPerCore float64 `json:"efficiency_per_core"`
}

// DayEngine compares the single-day ID-native scan against the retained
// string-keyed baseline (the DESIGN.md §7 ablation).
type DayEngine struct {
	IDNsOp           float64 `json:"id_ns_op"`
	IDAllocsOp       float64 `json:"id_allocs_op"`
	BaselineNsOp     float64 `json:"baseline_ns_op,omitempty"`
	BaselineAllocsOp float64 `json:"baseline_allocs_op,omitempty"`
	SpeedupX         float64 `json:"speedup_x,omitempty"`
	AllocsRatioX     float64 `json:"allocs_ratio_x,omitempty"`
}

// DetectDoc is results/BENCH_detect.json.
type DetectDoc struct {
	Bench     string `json:"bench"`  // always "detect"
	Schema    string `json:"schema"` // always DetectSchema
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	// Source names the producer ("dpsbench" or "go test -bench").
	Source string `json:"source"`
	// World describes the measured dataset (synthetic scale/days or a
	// loaded .dpsa path).
	World     string       `json:"world"`
	DayEngine *DayEngine   `json:"day_engine,omitempty"`
	Sweep     []DetectCell `json:"sweep"`
}

// FillEfficiency computes every cell's EfficiencyPerCore against the
// sweep's baseline: the cell with the smallest (gomaxprocs, workers).
func (d *DetectDoc) FillEfficiency() {
	if len(d.Sweep) == 0 {
		return
	}
	base := d.Sweep[0]
	for _, c := range d.Sweep {
		if c.Gomaxprocs < base.Gomaxprocs ||
			(c.Gomaxprocs == base.Gomaxprocs && c.Workers < base.Workers) {
			base = c
		}
	}
	if base.PartitionsPerSec <= 0 {
		return
	}
	for i := range d.Sweep {
		c := &d.Sweep[i]
		cores := min(c.Gomaxprocs, c.Workers)
		if cores < 1 {
			cores = 1
		}
		c.EfficiencyPerCore = (c.PartitionsPerSec / base.PartitionsPerSec) / float64(cores)
	}
}

// CoordSchema names the current BENCH_coord.json layout: one cell per
// coordination scenario (clean baseline plus chaos phases) with
// exactly-once accounting and lease-recovery latency.
const CoordSchema = "coord/v1"

// CoordCell is one coordination benchmark phase: the same partition set
// driven through the internal/coord plane under one chaos scenario.
type CoordCell struct {
	// Scenario is "" for the fault-free baseline, otherwise a
	// chaos.Scenario name (e.g. "worker-crash").
	Scenario string `json:"scenario"`
	Workers  int    `json:"workers"`
	Seed     uint64 `json:"seed"`

	Partitions int `json:"partitions"`
	Committed  int `json:"committed"`
	// Retried counts partitions that burned more than one lease before
	// committing — the scenario's observable blast radius.
	Retried  int `json:"retried"`
	Restarts int `json:"restarts"`

	WallSeconds      float64 `json:"wall_seconds"`
	PartitionsPerSec float64 `json:"partitions_per_sec"`
	// SlowdownX is WallSeconds over the clean cell's WallSeconds (1.0
	// for the clean cell itself) — what the chaos costs end to end.
	SlowdownX float64 `json:"slowdown_x"`

	// ReleaseLatency tracks how long expired leases sat abandoned
	// before a new worker picked the partition up (coord
	// coord_release_latency_seconds deltas for this phase).
	ReleaseCount      int64   `json:"release_count"`
	ReleaseMeanSecs   float64 `json:"release_mean_seconds"`
	RecoveredSpools   int64   `json:"recovered_spools"`
	DupCommits        int64   `json:"dup_commits"`
	FencedCommits     int64   `json:"fenced_commits"`
	JournalReplays    int64   `json:"journal_replays"`
	ReplayedRequeues  int64   `json:"replay_requeues"`
	QuarantinedSpools int     `json:"quarantined_spools"`
}

// CoordDoc is results/BENCH_coord.json.
type CoordDoc struct {
	Bench     string `json:"bench"`  // always "coord"
	Schema    string `json:"schema"` // always CoordSchema
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	// World describes the measured dataset (synthetic scale/days).
	World string `json:"world"`
	// LeaseTTLSeconds and HeartbeatSeconds pin the timing knobs the
	// latency numbers depend on.
	LeaseTTLSeconds  float64     `json:"lease_ttl_seconds"`
	HeartbeatSeconds float64     `json:"heartbeat_seconds"`
	Cells            []CoordCell `json:"cells"`
}

// FillSlowdown computes every cell's SlowdownX against the fault-free
// cell (Scenario == ""); without one the field stays zero.
func (d *CoordDoc) FillSlowdown() {
	var clean float64
	for _, c := range d.Cells {
		if c.Scenario == "" {
			clean = c.WallSeconds
			break
		}
	}
	if clean <= 0 {
		return
	}
	for i := range d.Cells {
		d.Cells[i].SlowdownX = d.Cells[i].WallSeconds / clean
	}
}

// Write persists the document as indented JSON, creating the parent
// directory if needed.
func (d *CoordDoc) Write(path string) error {
	if d.Bench == "" {
		d.Bench = "coord"
	}
	if d.Schema == "" {
		d.Schema = CoordSchema
	}
	return writeJSON(d, path)
}

// FollowSchema names the current BENCH_follow.json layout: the live
// follower's delta-apply cost against the full index rebuild it
// replaces, for a one-day catch-up batch.
const FollowSchema = "follow/v1"

// FollowDoc is results/BENCH_follow.json: what folding one day of new
// partitions into the serving index costs via api.Index.Apply (detect
// the new partitions + COW delta fold) versus rebuilding the whole
// index from the combined store. SpeedupX is the live-serving headroom:
// how many times faster a day lands via the delta path.
type FollowDoc struct {
	Bench     string `json:"bench"`  // always "follow"
	Schema    string `json:"schema"` // always FollowSchema
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	// World describes the measured dataset (synthetic scale/days).
	World string `json:"world"`

	// BaseDays/BasePartitions describe the already-served index the
	// delta lands on; DeltaPartitions is the one-day batch size.
	BaseDays        int `json:"base_days"`
	BasePartitions  int `json:"base_partitions"`
	DeltaPartitions int `json:"delta_partitions"`
	// DomainsTouched is how many domains the delta invalidated — the
	// cache blast radius of one day.
	DomainsTouched int `json:"domains_touched"`

	ApplyNsOp       float64 `json:"apply_ns_op"`
	ApplyAllocsOp   float64 `json:"apply_allocs_op"`
	RebuildNsOp     float64 `json:"rebuild_ns_op"`
	RebuildAllocsOp float64 `json:"rebuild_allocs_op"`
	// SpeedupX is RebuildNsOp / ApplyNsOp (the acceptance floor is 10x).
	SpeedupX float64 `json:"speedup_x"`
}

// FillSpeedup computes SpeedupX from the two per-op costs.
func (d *FollowDoc) FillSpeedup() {
	if d.ApplyNsOp > 0 {
		d.SpeedupX = d.RebuildNsOp / d.ApplyNsOp
	}
}

// Write persists the document as indented JSON, creating the parent
// directory if needed.
func (d *FollowDoc) Write(path string) error {
	if d.Bench == "" {
		d.Bench = "follow"
	}
	if d.Schema == "" {
		d.Schema = FollowSchema
	}
	return writeJSON(d, path)
}

// ScaleSchema names the current BENCH_scale.json layout: one cell per
// swept world scale comparing the full-load index build (store.Load +
// api.NewIndex) against the out-of-core streaming build (store.Open +
// api.NewIndexReader) on the same dataset file.
const ScaleSchema = "scale/v1"

// ScalePath is one build path's cost at one scale: wall time, partition
// throughput, and peak memory while the build ran. PeakHeapBytes is the
// high-water delta of /memory/classes/heap/objects:bytes over the
// path's pre-run baseline (sampled by a ticker goroutine);
// PeakRSSBytes is the max /proc/self/status VmRSS observed, 0 where
// unavailable.
type ScalePath struct {
	BuildSeconds     float64 `json:"build_seconds"`
	PartitionsPerSec float64 `json:"partitions_per_sec"`
	PeakHeapBytes    uint64  `json:"peak_heap_bytes"`
	PeakRSSBytes     uint64  `json:"peak_rss_bytes,omitempty"`
}

// ScaleCell is one swept world scale: the dataset's size axes plus both
// build paths and their ratios. MemRatio is stream peak heap over full
// peak heap (the acceptance ceiling is 0.25 at the largest scale);
// ThroughputRatio is stream partitions/sec over full partitions/sec
// (floor 0.8). ParityOK records that the two builds produced identical
// day/domain/series views.
type ScaleCell struct {
	Scale      int   `json:"scale"`
	Days       int   `json:"days"`
	Partitions int   `json:"partitions"`
	Rows       int64 `json:"rows"`
	FileBytes  int64 `json:"file_bytes"`

	Full   ScalePath `json:"full"`
	Stream ScalePath `json:"stream"`

	MemRatio        float64 `json:"mem_ratio"`
	ThroughputRatio float64 `json:"throughput_ratio"`
	ParityOK        bool    `json:"parity_ok"`
}

// FillRatios computes the cell's stream-vs-full ratios.
func (c *ScaleCell) FillRatios() {
	if c.Full.PeakHeapBytes > 0 {
		c.MemRatio = float64(c.Stream.PeakHeapBytes) / float64(c.Full.PeakHeapBytes)
	}
	if c.Full.PartitionsPerSec > 0 {
		c.ThroughputRatio = c.Stream.PartitionsPerSec / c.Full.PartitionsPerSec
	}
}

// ScaleDoc is results/BENCH_scale.json.
type ScaleDoc struct {
	Bench     string `json:"bench"`  // always "scale"
	Schema    string `json:"schema"` // always ScaleSchema
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	// Source names the producer ("dpsbench" or "go test -bench").
	Source string      `json:"source"`
	Cells  []ScaleCell `json:"cells"`
	// Detect holds the raw-detection sweep (DetectRangeStats over a
	// resident store vs over a streaming Reader, no index fold), written
	// by BenchmarkScaleDetect; empty in dpsbench output.
	Detect []ScaleCell `json:"detect,omitempty"`
}

// Write persists the document as indented JSON, creating the parent
// directory if needed.
func (d *ScaleDoc) Write(path string) error {
	if d.Bench == "" {
		d.Bench = "scale"
	}
	if d.Schema == "" {
		d.Schema = ScaleSchema
	}
	return writeJSON(d, path)
}

// Write persists the document as indented JSON, creating the parent
// directory if needed.
func (d *DetectDoc) Write(path string) error {
	if d.Bench == "" {
		d.Bench = "detect"
	}
	if d.Schema == "" {
		d.Schema = DetectSchema
	}
	return writeJSON(d, path)
}

func writeJSON(doc any, path string) error {
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("benchfmt: %w", err)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("benchfmt: %w", err)
		}
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
