package core

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"dpsadopt/internal/measure"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

// TestDetectRangeStreamingParity is the out-of-core acceptance gate:
// DetectRangeStats over a streaming store.Reader must produce
// byte-identical detections to DetectRangeStats over the in-memory store
// that was saved, across randomized
// worlds (different seeds and scales) and under -race (the streaming
// pool shares one Reader between workers).
func TestDetectRangeStreamingParity(t *testing.T) {
	days := []simtime.Day{quietDay, simtime.FromDate(2015, 3, 5)}
	refs := MustGroundTruth()
	for _, tc := range []struct {
		seed  int64
		scale int
	}{
		{seed: 2016, scale: 1500},
		{seed: 777, scale: 900},
		{seed: 424242, scale: 2200},
	} {
		cfg := worldsim.DefaultConfig(tc.scale)
		cfg.Seed = tc.seed
		w, err := worldsim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := store.New()
		p := measure.New(w, s, measure.Config{Mode: measure.ModeDirect, Workers: 4})
		for _, d := range days {
			if err := p.RunDay(context.Background(), d); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(t.TempDir(), "world.dpsa")
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}

		parts := Partitions(s)
		wantDets, wantStats := DetectRangeStats(context.Background(), s, parts, refs, 3)

		r, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Keys(); !reflect.DeepEqual(got, parts) {
			t.Fatalf("seed %d: Reader keys = %v, want %v", tc.seed, got, parts)
		}
		gotDets, gotStats := DetectRangeStats(context.Background(), r, parts, refs, 3)
		r.Close()
		if len(gotStats.Failed) != 0 {
			t.Fatalf("seed %d: streaming detect failed partitions: %v", tc.seed, gotStats.Failed)
		}
		if gotStats.Partitions != wantStats.Partitions || gotStats.Rows != wantStats.Rows {
			t.Fatalf("seed %d: stats diverge: stream %d parts/%d rows, full %d/%d",
				tc.seed, gotStats.Partitions, gotStats.Rows, wantStats.Partitions, wantStats.Rows)
		}
		if len(gotDets) != len(wantDets) {
			t.Fatalf("seed %d: %d streaming results, want %d", tc.seed, len(gotDets), len(wantDets))
		}
		for i := range wantDets {
			a, b := wantDets[i], gotDets[i]
			if b == nil {
				t.Fatalf("seed %d: nil streaming detection for %v", tc.seed, parts[i])
			}
			// The dict pointers legitimately differ (one per decode path);
			// everything semantic must match exactly.
			if a.Source != b.Source || a.Day != b.Day ||
				a.DomainsMeasured != b.DomainsMeasured || a.Rows != b.Rows ||
				a.anyCount != b.anyCount ||
				!reflect.DeepEqual(a.packed, b.packed) || !reflect.DeepEqual(a.off, b.off) {
				t.Fatalf("seed %d: detections diverge for %s/%s", tc.seed, a.Source, a.Day)
			}
			for pi := range refs.Providers {
				if a.Count(pi) != b.Count(pi) {
					t.Fatalf("seed %d: provider %d count %d != %d", tc.seed, pi, a.Count(pi), b.Count(pi))
				}
			}
			if a.CountAny() != b.CountAny() {
				t.Fatalf("seed %d: CountAny %d != %d", tc.seed, a.CountAny(), b.CountAny())
			}
		}
	}
}
