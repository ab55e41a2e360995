package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"

	"dpsadopt/internal/analysis"
	"dpsadopt/internal/experiment"
)

// Artifacts is everything `dpsreport -artifact all` prints, as the
// structures the report package renders.
type Artifacts struct {
	Table1         []experiment.SourceStats
	Table2         *experiment.Table2Result
	Fig2           []experiment.Series
	Fig3           []experiment.Figure3Panel
	Fig4           experiment.Figure4Result
	Fig5           analysis.GrowthResult
	Fig6           experiment.Figure6Result
	Fig7           []experiment.Figure7Panel
	Fig8           []experiment.Figure8Panel
	Classification []experiment.ClassificationRow
	Anomalies      []experiment.AnomalyReport
}

// Parts digests every cell of Table 1, Table 2 and each figure series,
// one digest per artifact in report order, so that a mismatch names the
// artifact. Table 1's compressed bytes are left out: they depend on how
// partitions were laid out in storage and are checked on their own (see
// checkBytes). Table 1 rows are
// written field by field (SourceStats carries an unexported accumulator
// that is not part of the table); the other artifacts hold only values,
// so their %+v rendering is canonical (fmt prints map keys sorted).
func (a *Artifacts) Parts() [][2]string {
	var out [][2]string
	put := func(name string, v any) {
		h := sha256.New()
		fmt.Fprintf(h, "%+v", v)
		out = append(out, [2]string{name, sum(h)})
	}
	put("table1", table1Points(a.Table1))
	if a.Table2 != nil {
		put("table2", *a.Table2)
	}
	put("fig2", a.Fig2)
	put("fig3", a.Fig3)
	put("fig4", a.Fig4)
	put("fig5", a.Fig5)
	put("fig6", a.Fig6)
	put("fig7", a.Fig7)
	put("fig8", a.Fig8)
	put("classification", a.Classification)
	put("anomalies", a.Anomalies)
	return out
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:32] }

// table1Bytes maps each Table 1 source to its compressed bytes.
func table1Bytes(rows []experiment.SourceStats) map[string]int64 {
	out := make(map[string]int64, len(rows))
	for _, st := range rows {
		out[st.Source] = st.CompressedBytes
	}
	return out
}

// Table 1's compressed bytes are the flate size of each partition's rows
// in the order the measurement workers committed them, so with more
// than one worker they move from run to run by the scheduler. Across
// 1 to 8 workers at 1:50000 a source moved by at most 1.8% and the
// total by at most 0.13% from the one-worker layout; another flate level
// (2 for BestSpeed) moves a source by 3.9-6.4% and the total by 3.3%.
const (
	bytesSourceTol = 0.03
	bytesTotalTol  = 0.005
)

// checkBytes compares Table 1's compressed bytes with the one-worker
// record: every recorded source must be present, each within
// bytesSourceTol of its record and their total within bytesTotalTol.
// It returns why they do not match ("" when they do) and the total's
// relative deviation, which a run notes even when it is within bounds.
func checkBytes(got, rec map[string]int64) (string, float64) {
	if len(got) != len(rec) {
		return fmt.Sprintf("%d sources, recorded %d", len(got), len(rec)), 0
	}
	var sumGot, sumRec int64
	why := ""
	for src, want := range rec {
		n, ok := got[src]
		if !ok {
			return "no bytes for source " + src, 0
		}
		if d := relDev(n, want); d > bytesSourceTol && why == "" {
			why = fmt.Sprintf("%s has %d bytes, %.2f%% from the recorded %d", src, n, 100*d, want)
		}
		sumGot += n
		sumRec += want
	}
	total := relDev(sumGot, sumRec)
	if total > bytesTotalTol && why == "" {
		why = fmt.Sprintf("%d bytes in all, %.2f%% from the recorded %d", sumGot, 100*total, sumRec)
	}
	return why, total
}

func relDev(got, want int64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := float64(got-want) / float64(want)
	if d < 0 {
		d = -d
	}
	return d
}

// table1Points renders the Table 1 columns that do not depend on how
// partitions were laid out in storage: everything but compressed bytes.
func table1Points(rows []experiment.SourceStats) string {
	var b strings.Builder
	for _, st := range rows {
		fmt.Fprintf(&b, "t1|%s|%s|%d|%d|%d\n", st.Source, st.FirstDay, st.Days, st.UniqueSLDs, st.DataPoints)
	}
	return b.String()
}
