package api

// The index's one fold. Every (source, day) partition reaches an Index
// through fold: the boot build folds day-ordered chunks into an empty
// index in place, and a running dpsapi folds a freshly committed
// partition through Apply, which takes the partition's already-run
// detections and produces a NEW Index sharing everything the delta does
// not touch (copy-on-write), plus a Delta describing exactly which
// days and domains changed so the response cache can be invalidated
// precisely. The old index stays fully readable throughout — in-flight
// requests finish against it — and the swap is a single pointer store.
//
// Three shapes of update exist, in decreasing frequency:
//
//   - pure append: the new days are after every indexed day (the daily
//     crawl case, and every chunk of the boot build). Columns grow by
//     the new slots; detected domains' runs extend in place.
//   - same-day merge: another source commits an already-indexed day.
//     Day counts grow by the genuinely new (domain, provider) pairs —
//     membership is checked against the old interval lists, so a
//     domain counts once per day across sources.
//   - backfill: a day lands between already-indexed days. Besides the
//     detected domains, every domain whose packed interval spans the
//     inserted day must be repacked (its run is no longer a run of
//     consecutive measured days), so this shape pays one scan over the
//     domain map.

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"dpsadopt/internal/core"
	"dpsadopt/internal/simtime"
)

// PartitionUpdate is one (source, day) partition's detection result,
// ready to fold into an index. Det must have been built with the same
// *core.References the index was, but may come from any store dictionary
// (the spool's own): the fold consumes it at the string edge. A nil Det
// marks a partition that could not be read: its source and day join the
// axes with no data, and it does not count as indexed.
type PartitionUpdate struct {
	Source string
	Day    simtime.Day
	Det    *core.DayDetections
}

// Delta reports what an Apply changed, for precise cache invalidation.
type Delta struct {
	Epoch   uint64          // the new index's epoch
	Applied int             // partitions folded in
	Days    []simtime.Day   // days whose aggregates changed, sorted
	NewDays []simtime.Day   // subset of Days not previously indexed
	Domains map[string]bool // domains whose histories changed (incl. repacked spanners)
}

// Apply folds a batch of partition updates into a new index, leaving
// the receiver untouched. The same (source, day) must not be applied
// twice — callers (the follower) dedupe against the journal. An empty
// batch returns the receiver unchanged with a nil delta.
func (x *Index) Apply(batch []PartitionUpdate) (*Index, *Delta) {
	if len(batch) == 0 {
		return x, nil
	}
	start := time.Now()
	nd := x.clone()
	nd.epoch++
	delta := nd.fold(batch, true)
	delta.Epoch = nd.epoch
	nd.buildTime = time.Since(start)
	mIndexDomains.Set(float64(len(nd.domains)))
	mIndexDays.Set(float64(len(nd.days)))
	return nd, delta
}

// clone is the copy-on-write step of Apply: the new index owns its
// columns and domain map, while interval lists stay shared with x until
// the fold replaces them. The sources and days slices are clipped, so
// growing them reallocates instead of writing into x's arrays.
func (x *Index) clone() *Index {
	nd := *x
	nd.sources = slices.Clip(x.sources)
	nd.days = slices.Clip(x.days)
	nd.domains = maps.Clone(x.domains)
	nd.series = make([][]int64, len(x.series))
	for p := range x.series {
		nd.series[p] = slices.Clone(x.series[p])
	}
	nd.measured = slices.Clone(x.measured)
	nd.anyUse = slices.Clone(x.anyUse)
	return &nd
}

// fold merges a batch of partition updates into x in place and reports
// what changed. It is the only code that writes the index's day axis,
// columns and domain map: Apply runs it once on a fresh clone, the build
// once per day on the index under construction. shared says the
// interval lists may still belong to another index, so a list that is
// extended in place is copied first.
func (x *Index) fold(batch []PartitionUpdate, shared bool) *Delta {
	np := x.refs.NumProviders()

	// Merge updates day by day at the string edge: each Det resolves its
	// own dictionary, and a domain counts once per day across sources.
	byDay := make(map[simtime.Day][]map[string]core.Method)
	measuredAdd := make(map[simtime.Day]int64)
	delta := &Delta{Domains: make(map[string]bool)}
	for _, u := range batch {
		if i, ok := slices.BinarySearch(x.sources, u.Source); !ok {
			x.sources = slices.Insert(x.sources, i, u.Source)
		}
		merged := byDay[u.Day]
		if merged == nil {
			merged = make([]map[string]core.Method, np)
			for p := range merged {
				merged[p] = make(map[string]core.Method)
			}
			byDay[u.Day] = merged
		}
		if u.Det == nil {
			continue
		}
		if u.Det.NumProviders() != np {
			panic(fmt.Sprintf("api: update %s/%s built with %d providers, index has %d",
				u.Source, u.Day, u.Det.NumProviders(), np))
		}
		for p := 0; p < np; p++ {
			u.Det.MergeAny(p, merged[p])
		}
		measuredAdd[u.Day] += int64(u.Det.DomainsMeasured)
		delta.Applied++
	}
	x.partitions += delta.Applied

	oldDays := x.days
	for d := range byDay {
		delta.Days = append(delta.Days, d)
		if _, ok := slices.BinarySearch(oldDays, d); !ok {
			delta.NewDays = append(delta.NewDays, d)
		}
	}
	slices.Sort(delta.Days)
	slices.Sort(delta.NewDays)
	// The daily-crawl shape — every touched day new and after the whole
	// old axis — leaves the old packing valid: runs just extend, in O(new
	// detections). Anything else repacks the touched domains.
	appendOnly := len(delta.Days) == len(delta.NewDays) &&
		(len(oldDays) == 0 || delta.NewDays[0] > oldDays[len(oldDays)-1])
	// The touched-domain set drives cache invalidation, the copy of
	// shared lists and the repack. An append onto lists the fold owns —
	// every day of the boot build, whose delta nobody reads — needs none
	// of them, so it skips the set.
	track := shared || !appendOnly
	if len(delta.NewDays) > 0 {
		x.spliceDays(delta.NewDays)
	}

	// Fold the day aggregates. For an already-indexed day only genuinely
	// new (domain, provider) pairs bump the counts: the interval lists,
	// not yet touched by this fold, are the membership oracle (every
	// indexed day inside a packed run is a detection).
	for day, merged := range byDay {
		di, _ := x.dayIndex(day)
		_, dayIsNew := slices.BinarySearch(delta.NewDays, day)
		anyDom := make(map[string]bool)
		for p := 0; p < np; p++ {
			added := int64(0)
			for dom := range merged[p] {
				anyDom[dom] = true
				if dayIsNew || !x.detectedOn(dom, p, day) {
					added++
				}
			}
			x.series[p][di] += added
		}
		for dom := range anyDom {
			if track {
				delta.Domains[dom] = true
			}
			if dayIsNew || !x.detectedOn(dom, -1, day) {
				x.anyUse[di]++
			}
		}
		x.measured[di] += measuredAdd[day]
	}

	if appendOnly {
		if shared {
			for dom := range delta.Domains {
				x.domains[dom] = slices.Clone(x.domains[dom])
			}
		}
		prev := simtime.Day(-1 << 30)
		if len(oldDays) > 0 {
			prev = oldDays[len(oldDays)-1]
		}
		for _, day := range delta.NewDays {
			for p, uses := range byDay[day] {
				for dom, m := range uses {
					x.domains[dom] = appendDetection(x.domains[dom], p, m, day, prev)
				}
			}
			prev = day
		}
		return delta
	}

	// A backfilled day severs the measured-day adjacency of every packed
	// run that spans it: those domains repack even without new
	// detections (their histories now show a gap on the inserted day).
	var mid []int32
	for _, d := range delta.NewDays {
		if len(oldDays) > 0 && d > oldDays[0] && d < oldDays[len(oldDays)-1] {
			mid = append(mid, int32(d))
		}
	}
	if len(mid) > 0 {
		for dom, ivs := range x.domains {
			if delta.Domains[dom] {
				continue
			}
		scan:
			for _, iv := range ivs {
				for _, d := range mid {
					if iv.first < d && d < iv.last {
						delta.Domains[dom] = true
						break scan
					}
				}
			}
		}
	}
	for dom := range delta.Domains {
		x.domains[dom] = x.repack(x.domains[dom], oldDays, byDay, dom)
	}
	return delta
}

// spliceDays puts new days on the axis and grows every column to match.
// Days after the whole axis append; a backfill merges the two sorted
// axes and re-lays each column around the inserted slots.
func (x *Index) spliceDays(add []simtime.Day) {
	old := x.days
	if len(old) == 0 || add[0] > old[len(old)-1] {
		x.days = append(x.days, add...)
		for p := range x.series {
			x.series[p] = append(x.series[p], make([]int64, len(add))...)
		}
		x.measured = append(x.measured, make([]int64, len(add))...)
		x.anyUse = append(x.anyUse, make([]int64, len(add))...)
		return
	}
	days := make([]simtime.Day, 0, len(old)+len(add))
	from := make([]int, 0, len(old)+len(add)) // old position per slot, -1 if inserted
	for i, j := 0, 0; i < len(old) || j < len(add); {
		if j == len(add) || (i < len(old) && old[i] < add[j]) {
			days, from = append(days, old[i]), append(from, i)
			i++
		} else {
			days, from = append(days, add[j]), append(from, -1)
			j++
		}
	}
	relay := func(col []int64) []int64 {
		out := make([]int64, len(days))
		for i, op := range from {
			if op >= 0 {
				out[i] = col[op]
			}
		}
		return out
	}
	x.days = days
	for p := range x.series {
		x.series[p] = relay(x.series[p])
	}
	x.measured = relay(x.measured)
	x.anyUse = relay(x.anyUse)
}

// detectedOn reports whether the interval lists already count dom as
// detected toward provider p (any provider when p < 0) on day d. Valid
// only for days already on the axis before the fold: interval packing
// guarantees every such day inside [first, last] is a detection.
func (x *Index) detectedOn(dom string, p int, d simtime.Day) bool {
	for _, iv := range x.domains[dom] {
		if (p < 0 || int(iv.provider) == p) && iv.first <= int32(d) && int32(d) <= iv.last {
			return true
		}
	}
	return false
}

// repack rebuilds one domain's interval list: the old intervals are
// exploded into per-day detections against the old day axis, the
// batch's detections of dom are OR-ed in, and the result is packed
// against the current axis — exactly what folding the union data in day
// order would produce. The result is a fresh slice, never ivs.
func (x *Index) repack(ivs []interval, oldDays []simtime.Day, byDay map[simtime.Day][]map[string]core.Method, dom string) []interval {
	np := x.refs.NumProviders()
	det := make(map[simtime.Day][]core.Method)
	at := func(day simtime.Day) []core.Method {
		pm := det[day]
		if pm == nil {
			pm = make([]core.Method, np)
			det[day] = pm
		}
		return pm
	}
	for _, iv := range ivs {
		lo, hi := axisSpan(oldDays, iv.first, iv.last)
		for _, day := range oldDays[lo:hi] {
			at(day)[iv.provider] |= iv.methods
		}
	}
	for day, merged := range byDay {
		for p, uses := range merged {
			if m, ok := uses[dom]; ok {
				at(day)[p] |= m
			}
		}
	}

	var out []interval
	prev := simtime.Day(-1 << 30)
	for _, day := range x.days {
		if pm := det[day]; pm != nil {
			for p, m := range pm {
				if m != 0 {
					out = appendDetection(out, p, m, day, prev)
				}
			}
		}
		prev = day
	}
	return out
}
