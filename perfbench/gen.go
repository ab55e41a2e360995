package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// zipfExponent is the key skew of the repository's own API benchmark
// (BenchmarkAPIServe), which takes it as the shape of production query
// logs.
const zipfExponent = 1.2

// zipfKeys draws keys with a Zipf skew. The seed shuffles which keys are
// hot, so different seeds stress different parts of the key space.
type zipfKeys struct {
	keys []string
	zipf *rand.Zipf
}

func newZipfKeys(rng *rand.Rand, keys []string) *zipfKeys {
	k := append([]string(nil), keys...)
	rng.Shuffle(len(k), func(i, j int) { k[i], k[j] = k[j], k[i] })
	return &zipfKeys{keys: k, zipf: rand.NewZipf(rng, zipfExponent, 1, uint64(len(k)-1))}
}

func (z *zipfKeys) next() string { return z.keys[z.zipf.Uint64()] }

// clock is the generator's view of time; tests inject a fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Sleep blocks the calling thread in nanosleep rather than parking on a
// runtime timer: the runtime's idle poller rounds timer waits up to whole
// milliseconds, which would make every request of a sub-millisecond
// schedule about a millisecond late.
func (wallClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// openLoop sends request i when it falls due at start + i/rate, whether
// or not earlier requests have been answered, from a fixed number of
// senders. Each request's latency runs from its due time, so a stall
// also charges the wait it imposes on every request queued behind it;
// lateness (send time minus due time) shows how far behind the senders
// ran. Both are recorded in request order, whatever order the answers
// came back in, so sample i is request i in every run.
type openLoop struct {
	Rate    float64 // requests per second
	Senders int
	Clock   clock
	// Do sends request i and reports whether it succeeded.
	Do func(i int) bool

	next   atomic.Int64
	stopAt atomic.Int64 // unix nanos; requests due at or after it are not sent

	mu      sync.Mutex
	Latency Dist // ms, from due time to answer, by request index
	Late    Dist // ms, from due time to send, by request index
	Sent    int
	Failed  int
}

func newOpenLoop(rate float64, senders int, c clock, do func(i int) bool) *openLoop {
	g := &openLoop{Rate: rate, Senders: senders, Clock: c, Do: do}
	g.stopAt.Store(int64(^uint64(0) >> 1))
	return g
}

// Run sends until Stop's deadline (or max requests) and returns once
// every sender has finished its last request.
func (g *openLoop) Run(start time.Time, max int) {
	interval := float64(time.Second) / g.Rate
	lat, late := make([]float64, max), make([]float64, max)
	sent := make([]bool, max)
	var wg sync.WaitGroup
	for s := 0; s < g.Senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(g.next.Add(1) - 1)
				if i >= max {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if due.UnixNano() >= g.stopAt.Load() {
					return
				}
				if wait := due.Sub(g.Clock.Now()); wait > 0 {
					g.Clock.Sleep(wait)
					if due.UnixNano() >= g.stopAt.Load() {
						return // stopped while waiting
					}
				}
				at := g.Clock.Now()
				ok := g.Do(i)
				done := g.Clock.Now()
				g.mu.Lock()
				g.Sent++
				if !ok {
					g.Failed++
				}
				g.mu.Unlock()
				lat[i] = ms(done.Sub(due))
				late[i] = ms(at.Sub(due))
				sent[i] = true
			}
		}()
	}
	wg.Wait()
	for i := range sent {
		if sent[i] {
			g.Latency.Add(lat[i])
			g.Late.Add(late[i])
		}
	}
}

// Stop makes requests due at or after t unsendable; requests already
// due still go out.
func (g *openLoop) Stop(t time.Time) { g.stopAt.Store(t.UnixNano()) }
