package main

import (
	"fmt"
	"testing"

	"dpsadopt/internal/experiment"
	"dpsadopt/internal/simtime"
)

func sampleArtifacts() *Artifacts {
	return &Artifacts{
		Table1: []experiment.SourceStats{{Source: "com", Days: 3, UniqueSLDs: 7, DataPoints: 40, CompressedBytes: 900}},
		Fig2:   []experiment.Series{{Name: "com", Days: []simtime.Day{1, 2, 3}, Vals: []float64{4, 5, 6}}},
		Fig4:   experiment.Figure4Result{Namespace: map[string]float64{"com": 0.8, "net": 0.2}},
	}
}

// TestDigestSeesOneCell: changing any single cell changes exactly the
// digest of the artifact that holds it.
func TestDigestSeesOneCell(t *testing.T) {
	base := sampleArtifacts().Parts()
	if again := sampleArtifacts().Parts(); fmt.Sprint(again) != fmt.Sprint(base) {
		t.Fatalf("digest not stable: %v vs %v", base, again)
	}
	edits := []struct {
		part string
		edit func(a *Artifacts)
	}{
		{"fig2", func(a *Artifacts) { a.Fig2[0].Vals[1] = 5.000001 }},
		{"fig2", func(a *Artifacts) { a.Fig2[0].Days[2] = 4 }},
		{"table1", func(a *Artifacts) { a.Table1[0].DataPoints-- }},
		{"fig4", func(a *Artifacts) { a.Fig4.Namespace["net"] = 0.21 }},
	}
	for _, e := range edits {
		a := sampleArtifacts()
		e.edit(a)
		for i, p := range a.Parts() {
			if changed := p != base[i]; changed != (p[0] == e.part) {
				t.Errorf("edit in %s: part %s changed=%v", e.part, p[0], changed)
			}
		}
	}
}

// TestDigestLeavesOutBytes: Table 1's compressed bytes are not in any
// digest; checkBytes holds them.
func TestDigestLeavesOutBytes(t *testing.T) {
	a := sampleArtifacts()
	a.Table1[0].CompressedBytes++
	if fmt.Sprint(a.Parts()) != fmt.Sprint(sampleArtifacts().Parts()) {
		t.Error("compressed bytes changed a digest")
	}
}

func TestCheckBytes(t *testing.T) {
	rec := map[string]int64{"com": 100_000, "net": 10_000}
	for _, c := range []struct {
		got  map[string]int64
		pass bool
	}{
		{map[string]int64{"com": 100_000, "net": 10_000}, true},
		{map[string]int64{"com": 99_900, "net": 9_800}, true},   // net -2%, total -0.27%
		{map[string]int64{"com": 100_000, "net": 9_600}, false}, // net -4%
		{map[string]int64{"com": 99_000, "net": 10_000}, false}, // total -0.9%
		{map[string]int64{"com": 100_000}, false},
		{map[string]int64{"com": 100_000, "org": 10_000}, false},
	} {
		why, _ := checkBytes(c.got, rec)
		if (why == "") != c.pass {
			t.Errorf("checkBytes(%v) = %q, want pass=%v", c.got, why, c.pass)
		}
	}
}
