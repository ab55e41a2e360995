package api

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"dpsadopt/internal/analysis"
	"dpsadopt/internal/core"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// interval is one packed detection interval: a maximal run of
// consecutive measured days on which a domain exhibited the same
// reference methods toward one provider. 12 bytes per interval keeps a
// multi-million-domain index compact; a gap in detection (or a change
// in the method set) starts a new interval.
type interval struct {
	provider uint8
	methods  core.Method
	days     uint16 // measured days covered (== last-first+1 on contiguous data)
	first    int32  // simtime.Day
	last     int32  // simtime.Day, inclusive
}

// Index is the read-optimized view of a loaded dataset: detection runs
// once per partition at build time, and every request is then answered
// from inverted structures — domain → packed interval list, provider →
// daily series — without touching the columnar store again. The index is
// immutable once built or applied, so readers need no locks.
type Index struct {
	refs    *core.References
	sources []string
	days    []simtime.Day // sorted union over sources

	domains map[string][]interval // domain → intervals in day order

	series   [][]int64 // [provider][dayIdx] distinct domains using p
	measured []int64   // [dayIdx] domains with any stored row (summed over sources)
	anyUse   []int64   // [dayIdx] distinct domains using at least one provider

	partitions  int
	epoch       uint64 // bumped by every Apply; 0 for a fresh build
	buildTime   time.Duration
	detectStats core.RangeStats
}

// NewIndex builds the index from a store by running detection over every
// (source, day) partition and merging sources per day (a domain counted
// once per day regardless of how many lists contain it, as §4.1 counts).
func NewIndex(s *store.Store, refs *core.References) *Index {
	x, _ := buildIndex(s, core.Partitions(s), refs)
	return x
}

// IndexBuildError reports a streaming index build that skipped
// unreadable partitions. The Index is still valid and serves everything
// that did decode — degraded, not dead — so callers get both.
type IndexBuildError struct {
	Failed []core.PartitionFailure
}

func (e *IndexBuildError) Error() string {
	return fmt.Sprintf("api: index build skipped %d unreadable partition(s), first: %v",
		len(e.Failed), e.Failed[0].Err)
}

// NewIndexReader builds the index out-of-core from a streaming
// *store.Reader: detection workers acquire → detect → release each
// partition, so peak memory is O(workers × largest partition), not the
// dataset. Unreadable partitions degrade the index (their days stay on
// the axis, simply missing data) and come back in an *IndexBuildError
// alongside the still-usable Index.
func NewIndexReader(r *store.Reader, refs *core.References) (*Index, error) {
	x, failed := buildIndex(r, r.Keys(), refs)
	if len(failed) > 0 {
		return x, &IndexBuildError{Failed: failed}
	}
	return x, nil
}

// buildIndex is Apply from an empty index, one chunk of days at a time.
// The partition list defines the universe: every listed partition puts
// its source and day on the axes, even one that fails to read. Each
// chunk fans out across the DetectRangeStats pool and folds in place,
// a day at a time, before the next chunk decodes, so the build's
// transient detections are O(chunk), never O(dataset); chunks are sized
// so each still saturates the pool. Days arrive in order, so every fold
// is a pure append.
func buildIndex(src core.BatchSource, universe []core.Partition, refs *core.References) (*Index, []core.PartitionFailure) {
	start := time.Now()
	x := &Index{
		refs:    refs,
		series:  make([][]int64, refs.NumProviders()),
		domains: make(map[string][]interval),
	}
	parts := append([]core.Partition(nil), universe...)
	sort.Slice(parts, func(i, j int) bool {
		if parts[i].Day != parts[j].Day {
			return parts[i].Day < parts[j].Day
		}
		return parts[i].Source < parts[j].Source
	})
	sources := make(map[string]bool)
	for _, pt := range parts {
		sources[pt.Source] = true
	}
	chunkDays := 2
	if len(sources) > 0 {
		if need := (2*runtime.GOMAXPROCS(0) + len(sources) - 1) / len(sources); need > chunkDays {
			chunkDays = need
		}
	}
	var ups []PartitionUpdate
	for lo := 0; lo < len(parts); {
		// The chunk is the partitions of the next chunkDays days.
		hi := lo
		for days := 0; hi < len(parts); hi++ {
			if hi == lo || parts[hi].Day != parts[hi-1].Day {
				if days++; days > chunkDays {
					break
				}
			}
		}
		chunk := parts[lo:hi]
		dets, rst := core.DetectRangeStats(context.Background(), src, chunk, refs, 0)
		x.detectStats.Add(rst)
		// Fold day by day, letting each day's detections go once folded.
		for i := 0; i < len(chunk); {
			ups = ups[:0]
			for day := chunk[i].Day; i < len(chunk) && chunk[i].Day == day; i++ {
				ups = append(ups, PartitionUpdate{Source: chunk[i].Source, Day: day, Det: dets[i]})
				dets[i] = nil
			}
			x.fold(ups, false)
			clear(ups)
		}
		lo = hi
	}

	x.buildTime = time.Since(start)
	mIndexDomains.Set(float64(len(x.domains)))
	mIndexDays.Set(float64(len(x.days)))
	mIndexBuildSeconds.Set(x.buildTime.Seconds())
	return x, x.detectStats.Failed
}

// dayIndex returns d's position on the day axis.
func (x *Index) dayIndex(d simtime.Day) (int, bool) { return slices.BinarySearch(x.days, d) }

// axisSpan returns the index range [lo, hi) of the days on a sorted axis
// that fall within [first, last].
func axisSpan(days []simtime.Day, first, last int32) (int, int) {
	lo, _ := slices.BinarySearch(days, simtime.Day(first))
	hi, found := slices.BinarySearch(days, simtime.Day(last))
	if found {
		hi++
	}
	return lo, hi
}

// appendDetection is the interval-packing step: extend the provider's
// last interval if day is the next consecutive measured day (prev is the
// previous day on the axis) with the same methods, else start a new
// interval.
func appendDetection(ivs []interval, p int, m core.Method, day, prev simtime.Day) []interval {
	for i := len(ivs) - 1; i >= 0; i-- {
		if int(ivs[i].provider) != p {
			continue
		}
		if simtime.Day(ivs[i].last) == prev && ivs[i].methods == m {
			ivs[i].last = int32(day)
			ivs[i].days++
			return ivs
		}
		break
	}
	return append(ivs, interval{
		provider: uint8(p),
		methods:  m,
		days:     1,
		first:    int32(day),
		last:     int32(day),
	})
}

// IntervalInfo is one detection interval in presentation form.
type IntervalInfo struct {
	From    string `json:"from"`
	To      string `json:"to"`
	Days    int    `json:"days"`
	Methods string `json:"methods"`
}

// ProviderUse summarises one domain's use of one provider.
type ProviderUse struct {
	Provider  string         `json:"provider"`
	Methods   string         `json:"methods"` // union over all intervals
	FirstSeen string         `json:"first_seen"`
	LastSeen  string         `json:"last_seen"`
	Days      int            `json:"days"`
	PeakRun   int            `json:"peak_run_days"` // longest uninterrupted interval
	Intervals []IntervalInfo `json:"intervals"`
}

// DomainHistory is the /v1/domain/{name} response body.
type DomainHistory struct {
	Domain    string        `json:"domain"`
	FirstSeen string        `json:"first_seen"`
	LastSeen  string        `json:"last_seen"`
	Days      int           `json:"days_detected"`
	Providers []ProviderUse `json:"providers"`
}

// Domain returns the full detection history of one domain, or false if
// the domain never exhibited a DPS reference in the dataset.
func (x *Index) Domain(name string) (DomainHistory, bool) {
	ivs, ok := x.domains[name]
	if !ok {
		return DomainHistory{}, false
	}
	h := DomainHistory{Domain: name}
	byProv := make(map[int]*ProviderUse)
	union := make(map[int]core.Method)
	var order []int
	first, last := int32(1<<31-1), int32(-1<<31)
	daySet := make(map[simtime.Day]bool)
	for _, iv := range ivs {
		if iv.first < first {
			first = iv.first
		}
		if iv.last > last {
			last = iv.last
		}
		lo, hi := axisSpan(x.days, iv.first, iv.last)
		for _, d := range x.days[lo:hi] {
			daySet[d] = true
		}
		p := int(iv.provider)
		u := byProv[p]
		if u == nil {
			u = &ProviderUse{
				Provider:  x.refs.Providers[p].Name,
				FirstSeen: simtime.Day(iv.first).String(),
			}
			byProv[p] = u
			order = append(order, p)
		}
		union[p] |= iv.methods
		u.LastSeen = simtime.Day(iv.last).String()
		u.Days += int(iv.days)
		if int(iv.days) > u.PeakRun {
			u.PeakRun = int(iv.days)
		}
		u.Intervals = append(u.Intervals, IntervalInfo{
			From:    simtime.Day(iv.first).String(),
			To:      simtime.Day(iv.last).String(),
			Days:    int(iv.days),
			Methods: iv.methods.String(),
		})
	}
	sort.Ints(order)
	for _, p := range order {
		byProv[p].Methods = union[p].String()
		h.Providers = append(h.Providers, *byProv[p])
	}
	h.FirstSeen = simtime.Day(first).String()
	h.LastSeen = simtime.Day(last).String()
	h.Days = len(daySet)
	return h, true
}

// ProviderSeries is the /v1/provider/{name}/series response body.
type ProviderSeries struct {
	Provider string    `json:"provider"`
	FirstDay string    `json:"first_day"`
	Days     []string  `json:"days"`
	Raw      []int64   `json:"raw"`
	Smoothed []float64 `json:"smoothed"`
}

// Series returns one provider's daily use counts (raw and §4.2-smoothed).
// Provider names match case-insensitively. Smoothing is global over the
// series, so it runs here, on read; the response cache keeps the answer
// for the index's epoch.
func (x *Index) Series(name string) (ProviderSeries, bool) {
	p := -1
	for i := range x.refs.Providers {
		if strings.EqualFold(x.refs.Providers[i].Name, name) {
			p = i
			break
		}
	}
	if p < 0 {
		return ProviderSeries{}, false
	}
	out := ProviderSeries{
		Provider: x.refs.Providers[p].Name,
		Days:     make([]string, len(x.days)),
		Raw:      append([]int64(nil), x.series[p]...),
	}
	for i, d := range x.days {
		out.Days[i] = d.String()
	}
	if len(x.days) > 0 {
		out.FirstDay = x.days[0].String()
		raw := make([]float64, len(out.Raw))
		for i, v := range out.Raw {
			raw[i] = float64(v)
		}
		out.Smoothed = analysis.Smooth(raw)
	}
	return out, true
}

// DayInfo is the /v1/day/{date} response body.
type DayInfo struct {
	Day       string           `json:"day"`
	Measured  int64            `json:"domains_measured"`
	AnyUse    int64            `json:"domains_using_any"`
	Providers map[string]int64 `json:"providers"`
}

// Day returns per-provider totals for one measured day.
func (x *Index) Day(d simtime.Day) (DayInfo, bool) {
	di, ok := x.dayIndex(d)
	if !ok {
		return DayInfo{}, false
	}
	out := DayInfo{
		Day:       d.String(),
		Measured:  x.measured[di],
		AnyUse:    x.anyUse[di],
		Providers: make(map[string]int64, len(x.refs.Providers)),
	}
	for p := range x.refs.Providers {
		out.Providers[x.refs.Providers[p].Name] = x.series[p][di]
	}
	return out, true
}

// Stats is the /v1/stats response body. ExampleDomain gives smoke tests
// and quickstarts a known-good /v1/domain key.
type Stats struct {
	Sources           []string `json:"sources"`
	FirstDay          string   `json:"first_day"`
	LastDay           string   `json:"last_day"`
	DaysIndexed       int      `json:"days_indexed"`
	PartitionsIndexed int      `json:"partitions_indexed"`
	DomainsDetected   int      `json:"domains_detected"`
	ExampleDomain     string   `json:"example_domain,omitempty"`
	Providers         []string `json:"providers"`
	IndexBuildMS      float64  `json:"index_build_ms"`
	IndexEpoch        uint64   `json:"index_epoch"`
}

// Stats summarises the loaded dataset and index.
func (x *Index) Stats() Stats {
	st := Stats{
		Sources:           x.sources,
		DaysIndexed:       len(x.days),
		PartitionsIndexed: x.partitions,
		DomainsDetected:   len(x.domains),
		IndexBuildMS:      float64(x.buildTime.Microseconds()) / 1000,
		IndexEpoch:        x.epoch,
	}
	if len(x.days) > 0 {
		st.FirstDay = x.days[0].String()
		st.LastDay = x.days[len(x.days)-1].String()
	}
	for i := range x.refs.Providers {
		st.Providers = append(st.Providers, x.refs.Providers[i].Name)
	}
	for dom := range x.domains {
		if st.ExampleDomain == "" || dom < st.ExampleDomain {
			st.ExampleDomain = dom
		}
	}
	return st
}

// Domains lists every detected domain, sorted (used by benchmarks and
// dpsdata; not exposed as a route).
func (x *Index) Domains() []string {
	out := make([]string, 0, len(x.domains))
	for dom := range x.domains {
		out = append(out, dom)
	}
	sort.Strings(out)
	return out
}

// Days lists the indexed days, sorted.
func (x *Index) Days() []simtime.Day { return append([]simtime.Day(nil), x.days...) }

// Epoch is the index's version: 0 for a fresh NewIndex build, bumped by
// one for every Apply. Readers use it to tell index generations apart.
func (x *Index) Epoch() uint64 { return x.epoch }

// BuildStats reports the detection fan-out the index build performed:
// the (source, day) partitions classified and the wall time spent.
func (x *Index) BuildStats() (partitions int, elapsed time.Duration) {
	return x.partitions, x.buildTime
}

// DetectStats returns the stage-timing summary of the build's
// DetectRangeStats pass, for logging per-core efficiency at startup.
func (x *Index) DetectStats() core.RangeStats { return x.detectStats }
