package main

import (
	"context"
	"testing"

	"dpsadopt/internal/measure"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/transport"
	"dpsadopt/internal/worldsim"
)

var _ transport.StreamNetwork = (*countNet)(nil)

// TestCountNetFaithful: a wire day behind the counting wrapper sends the
// same queries and resolutions, and stores the same rows, as the same
// day on the bare network.
func TestCountNetFaithful(t *testing.T) {
	w, err := worldsim.New(worldsim.DefaultConfig(400_000))
	if err != nil {
		t.Fatal(err)
	}
	day := w.Cfg.Window.Start + 100
	run := func(wrap bool) (measure.NetStats, int, *netCounts) {
		counts := &netCounts{}
		s := store.New()
		p := measure.New(w, s, measure.Config{Mode: measure.ModeWire, Workers: 2,
			WireNetwork: func(d simtime.Day) transport.Network {
				n := transport.NewMem(int64(d))
				if wrap {
					return &countNet{inner: n, counts: counts}
				}
				return n
			}})
		if err := p.RunDay(context.Background(), day); err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, src := range s.Sources() {
			n, _, _ := s.DayStats(src, day)
			rows += n
		}
		return p.LastNetStats(), rows, counts
	}
	bare, bareRows, _ := run(false)
	wrapped, wrappedRows, counts := run(true)
	if bare.Queries != wrapped.Queries || bare.Resolutions != wrapped.Resolutions || bare.GaveUp != wrapped.GaveUp {
		t.Errorf("bare %+v, wrapped %+v", bare, wrapped)
	}
	if bareRows != wrappedRows {
		t.Errorf("rows: bare %d, wrapped %d", bareRows, wrappedRows)
	}
	if bare.Queries == 0 || counts.datagrams.Load() < bare.Queries {
		t.Errorf("wrapper saw %d datagrams for %d queries", counts.datagrams.Load(), bare.Queries)
	}
}
