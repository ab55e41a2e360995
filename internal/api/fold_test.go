package api

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"dpsadopt/internal/analysis"
	"dpsadopt/internal/core"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// modelPart is one partition of the brute-force model: its detections,
// or nil when the partition could not be read.
type modelPart struct {
	src string
	day simtime.Day
	det *core.DayDetections
}

// model is the index's serving state computed the slow, obvious way,
// straight from per-partition detections: every partition puts its
// source and day on the axes, and a domain counts once per day across
// sources (§4.1). It shares no code with the fold.
type model struct {
	refs     *core.References
	sources  []string
	days     []simtime.Day
	parts    int                                      // readable partitions
	measured map[simtime.Day]int64                    // day → domains measured, summed over sources
	uses     map[simtime.Day][]map[string]core.Method // day → [p] domain → methods
}

func newModel(refs *core.References, parts []modelPart) *model {
	m := &model{
		refs:     refs,
		measured: make(map[simtime.Day]int64),
		uses:     make(map[simtime.Day][]map[string]core.Method),
	}
	srcSet := make(map[string]bool)
	for _, pt := range parts {
		srcSet[pt.src] = true
		if m.uses[pt.day] == nil {
			m.uses[pt.day] = make([]map[string]core.Method, refs.NumProviders())
			for p := range m.uses[pt.day] {
				m.uses[pt.day][p] = make(map[string]core.Method)
			}
			m.days = append(m.days, pt.day)
		}
		if pt.det == nil {
			continue
		}
		m.parts++
		m.measured[pt.day] += int64(pt.det.DomainsMeasured)
		for p := range m.uses[pt.day] {
			pt.det.MergeAny(p, m.uses[pt.day][p])
		}
	}
	for s := range srcSet {
		m.sources = append(m.sources, s)
	}
	sort.Strings(m.sources)
	sort.Slice(m.days, func(i, j int) bool { return m.days[i] < m.days[j] })
	return m
}

// domains lists every domain detected on some day, sorted.
func (m *model) domains() []string {
	set := make(map[string]bool)
	for _, perProv := range m.uses {
		for _, uses := range perProv {
			for dom := range uses {
				set[dom] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for dom := range set {
		out = append(out, dom)
	}
	sort.Strings(out)
	return out
}

// domain packs one domain's history: per provider, a run covers
// consecutive axis days with the same methods; a day without detection
// or with other methods ends it.
func (m *model) domain(dom string) DomainHistory {
	h := DomainHistory{Domain: dom}
	detected := make(map[simtime.Day]bool)
	for p := range m.refs.Providers {
		var u *ProviderUse
		var union core.Method
		var run *IntervalInfo
		var runMethods core.Method
		for i, day := range m.days {
			meth, ok := m.uses[day][p][dom]
			if !ok {
				run = nil
				continue
			}
			detected[day] = true
			if u == nil {
				u = &ProviderUse{Provider: m.refs.Providers[p].Name, FirstSeen: day.String()}
			}
			union |= meth
			u.LastSeen = day.String()
			u.Days++
			if run != nil && runMethods == meth && i > 0 {
				run.To = day.String()
				run.Days++
			} else {
				u.Intervals = append(u.Intervals, IntervalInfo{From: day.String(), To: day.String(), Days: 1, Methods: meth.String()})
				runMethods = meth
			}
			run = &u.Intervals[len(u.Intervals)-1]
			if run.Days > u.PeakRun {
				u.PeakRun = run.Days
			}
		}
		if u != nil {
			u.Methods = union.String()
			h.Providers = append(h.Providers, *u)
		}
	}
	for _, day := range m.days {
		if detected[day] {
			if h.FirstSeen == "" {
				h.FirstSeen = day.String()
			}
			h.LastSeen = day.String()
			h.Days++
		}
	}
	return h
}

// series is one provider's raw daily counts and their §4.2 smoothing.
func (m *model) series(p int) ProviderSeries {
	out := ProviderSeries{Provider: m.refs.Providers[p].Name, Days: []string{}}
	var raw []float64
	for _, day := range m.days {
		out.Days = append(out.Days, day.String())
		out.Raw = append(out.Raw, int64(len(m.uses[day][p])))
		raw = append(raw, float64(len(m.uses[day][p])))
	}
	if len(m.days) > 0 {
		out.FirstDay = m.days[0].String()
		out.Smoothed = analysis.Smooth(raw)
	}
	return out
}

func (m *model) day(day simtime.Day) DayInfo {
	out := DayInfo{Day: day.String(), Measured: m.measured[day], Providers: make(map[string]int64)}
	anySet := make(map[string]bool)
	for p, uses := range m.uses[day] {
		out.Providers[m.refs.Providers[p].Name] = int64(len(uses))
		for dom := range uses {
			anySet[dom] = true
		}
	}
	out.AnyUse = int64(len(anySet))
	return out
}

func (m *model) stats(epoch uint64) Stats {
	doms := m.domains()
	st := Stats{
		Sources:           m.sources,
		DaysIndexed:       len(m.days),
		PartitionsIndexed: m.parts,
		DomainsDetected:   len(doms),
		IndexEpoch:        epoch,
	}
	if len(m.days) > 0 {
		st.FirstDay = m.days[0].String()
		st.LastDay = m.days[len(m.days)-1].String()
	}
	if len(doms) > 0 {
		st.ExampleDomain = doms[0]
	}
	for _, p := range m.refs.Providers {
		st.Providers = append(st.Providers, p.Name)
	}
	return st
}

// assertMatchesModel compares every public view of idx against m.
func assertMatchesModel(t *testing.T, m *model, idx *Index) {
	t.Helper()
	if got := idx.Days(); !reflect.DeepEqual(got, m.days) {
		t.Fatalf("Days = %v, want %v", got, m.days)
	}
	doms := m.domains()
	if got := idx.Domains(); !reflect.DeepEqual(got, doms) {
		t.Fatalf("Domains = %v, want %v", got, doms)
	}
	for _, dom := range doms {
		got, ok := idx.Domain(dom)
		if want := m.domain(dom); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Domain(%s) =\n%+v\nwant\n%+v", dom, got, want)
		}
	}
	if _, ok := idx.Domain("quiet.com"); ok {
		t.Fatal("unprotected domain has a history")
	}
	for p := range m.refs.Providers {
		got, _ := idx.Series(m.refs.Providers[p].Name)
		if want := m.series(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("Series(%s) =\n%+v\nwant\n%+v", want.Provider, got, want)
		}
	}
	for _, day := range m.days {
		got, ok := idx.Day(day)
		if want := m.day(day); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Day(%s) = %+v, want %+v", day, got, want)
		}
	}
	got := idx.Stats()
	got.IndexBuildMS = 0
	if want := m.stats(idx.Epoch()); !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

// foldParts is the oracle's partition set: three sources over seven
// days with holes, so single-partition folds in any order hit every
// update shape — appends, backfills into the middle of the axis, days
// before its start, same-day merges and new sources.
var foldParts = []partKey{
	{"com", 0}, {"com", 1}, {"com", 2}, {"com", 3}, {"com", 4}, {"com", 6},
	{"net", 1}, {"net", 2}, {"net", 5}, {"net", 6},
	{"org", 3},
}

// TestApplySinglePartitionsMatchModel folds one partition at a time
// into an empty index, in a fixed order that covers every update shape
// and in seeded shuffles, and checks every public view against the
// brute-force model after each fold — of the new index, and of the one
// it was applied to, which must not have changed.
func TestApplySinglePartitionsMatchModel(t *testing.T) {
	refs := core.MustGroundTruth()
	_, ups := buildBoth(t, refs, foldParts)
	orders := [][]int{{
		3,  // com/3 on an empty index
		10, // org/3: a new source on an indexed day
		9,  // net/6: append
		0,  // com/0: a day before the axis
		2,  // com/2: backfill between indexed days
		7,  // net/2: same-day merge
		8,  // net/5: backfill
		1, 4, 5, 6,
	}}
	for seed := int64(1); seed <= 4; seed++ {
		orders = append(orders, rand.New(rand.NewSource(seed)).Perm(len(ups)))
	}
	for _, order := range orders {
		idx := NewIndex(store.New(), refs)
		var folded []modelPart
		prev := newModel(refs, nil)
		for _, i := range order {
			u := ups[i]
			next, delta := idx.Apply([]PartitionUpdate{u})
			if delta.Applied != 1 || delta.Epoch != idx.Epoch()+1 {
				t.Fatalf("order %v: fold of %s/%s: delta %+v", order, u.Source, u.Day, delta)
			}
			folded = append(folded, modelPart{u.Source, u.Day, u.Det})
			cur := newModel(refs, folded)
			assertMatchesModel(t, cur, next)
			assertMatchesModel(t, prev, idx)
			idx, prev = next, cur
		}
	}
}

// TestApplyLeavesReceiverUntouched applies two different updates to one
// built index. Its day axis and source list have spare capacity, so an
// Apply that grew them in place would write into the receiver's arrays —
// and into its sibling's.
func TestApplyLeavesReceiverUntouched(t *testing.T) {
	refs := core.MustGroundTruth()
	parts := []partKey{{"com", 0}, {"net", 0}, {"org", 0}, {"com", 1}, {"com", 2}, {"aaa", 3}, {"com", 5}}
	all, ups := buildBoth(t, refs, parts[:5])
	_, extra := buildBoth(t, refs, parts[5:])
	var base []modelPart
	for _, u := range ups {
		base = append(base, modelPart{u.Source, u.Day, u.Det})
	}
	idx := NewIndex(all, refs)
	if cap(idx.days) == len(idx.days) || cap(idx.sources) == len(idx.sources) {
		t.Fatalf("fixture lost its spare capacity: days %d/%d, sources %d/%d",
			len(idx.days), cap(idx.days), len(idx.sources), cap(idx.sources))
	}
	a, _ := idx.Apply(extra[:1]) // a new first source, a new last day
	b, _ := idx.Apply(extra[1:]) // a different new last day
	assertMatchesModel(t, newModel(refs, base), idx)
	for i, got := range []*Index{a, b} {
		u := extra[i]
		want := newModel(refs, append(append([]modelPart(nil), base...), modelPart{u.Source, u.Day, u.Det}))
		assertMatchesModel(t, want, got)
	}
}

// TestNewIndexReaderDegradedAxis pins the degraded build: the
// directory, not the readable data, defines the axes. A day whose only
// partition is unreadable stays on the day axis with zero counts — and
// splits every run across it — while every other view matches the model.
func TestNewIndexReaderDegradedAxis(t *testing.T) {
	refs := core.MustGroundTruth()
	all, ups := buildBoth(t, refs, foldParts)
	victim := store.PartitionKey{Source: "com", Day: 4} // day 4's only partition
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := all.Save(path); err != nil {
		t.Fatal(err)
	}
	flipPartition(t, path, victim)

	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	idx, err := NewIndexReader(r, refs)
	var ibe *IndexBuildError
	if !errors.As(err, &ibe) || len(ibe.Failed) != 1 || ibe.Failed[0].Partition != victim {
		t.Fatalf("err = %v, want one failure for %s", err, victim)
	}
	var parts []modelPart
	for _, u := range ups {
		pt := modelPart{u.Source, u.Day, u.Det}
		if (store.PartitionKey{Source: u.Source, Day: u.Day}) == victim {
			pt.det = nil
		}
		parts = append(parts, pt)
	}
	assertMatchesModel(t, newModel(refs, parts), idx)
	if d, ok := idx.Day(victim.Day); !ok || d.Measured != 0 || d.AnyUse != 0 {
		t.Fatalf("Day(%s) = %+v, %v; want on the axis with zero counts", victim.Day, d, ok)
	}
}

// flipPartition flips one byte in the middle of a saved partition, so
// its checksum fails.
func flipPartition(t *testing.T, path string, k store.PartitionKey) {
	t.Helper()
	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var off, length uint64
	for _, ent := range r.Partitions() {
		if ent.Key() == k {
			off, length = ent.Extent()
		}
	}
	r.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off+length/2] ^= 0xA5
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
