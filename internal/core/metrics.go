package core

import "dpsadopt/internal/obs"

// Detection-engine metrics. DetectRangeStats is the shared parallel pass
// behind every figure, Table 1, and the dpsapi load-time index; these
// make its fan-out legible from /metrics while a build or run is in
// flight.
var (
	mDetectWorkers = obs.Default().Gauge("detect_workers",
		"goroutines currently inside DetectRange worker pools")
	mDetectPartitions = obs.Default().Counter("detect_partitions_total",
		"(source, day) partitions classified; rate() gives partitions/sec")
	mDetectRows = obs.Default().Counter("detect_rows_total",
		"rows classified against the reference table")
	mDetectSeconds = obs.Default().Histogram("detect_partition_seconds",
		"wall time to classify one partition", nil)
	mDetectRowRate = obs.Default().Histogram("detect_rows_per_second",
		"per-partition classification throughput (rows/sec)",
		[]float64{1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8})
)

// Stage-resolved timing: where a DetectRangeStats worker's time goes.
// Buckets reach down to 1µs because healthy queue waits are
// sub-microsecond and a partition's scan is tens to hundreds of µs at
// bench scales.
var (
	stageBuckets = []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4,
		2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1,
	}
	mDetectStage = obs.Default().HistogramVec("detect_stage_seconds",
		"per-worker time by DetectRange stage (queue_wait, scan, merge, barrier)",
		"stage", stageBuckets)
	mStageQueueWait    = mDetectStage.With("queue_wait")
	mStageScan         = mDetectStage.With("scan")
	mStageMerge        = mDetectStage.With("merge")
	mStageBarrier      = mDetectStage.With("barrier")
	mDetectUtilization = obs.Default().Gauge("detect_worker_utilization",
		"busy fraction (scan+merge over pool capacity) of the last DetectRange call")
)
