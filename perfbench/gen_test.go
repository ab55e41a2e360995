package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when slept on or when a request "takes" time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) { c.advance(d) }

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestOpenLoopChargesStallFromDueTime: at 100 req/s (one due every
// 10ms) with 1ms service, request 3 stalls for 100ms. The requests
// queued behind it are sent late, and their latency counts the wait
// from their due time, not from when they were finally sent.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.Now()
	g := newOpenLoop(100, 1, clk, func(i int) bool {
		if i == 3 {
			clk.advance(100 * time.Millisecond)
		} else {
			clk.advance(time.Millisecond)
		}
		return i != 7
	})
	g.Run(start, 30)

	if g.Sent != 30 || g.Failed != 1 {
		t.Fatalf("sent %d failed %d, want 30 and 1", g.Sent, g.Failed)
	}
	lat, late := g.Latency.vals, g.Late.vals
	want := map[int][2]float64{ // request: {latency ms, lateness ms}
		0:  {1, 0},
		2:  {1, 0},
		3:  {100, 0},
		4:  {91, 90}, // due at 40ms, sent at 130ms
		5:  {82, 81},
		13: {10, 9},
		14: {1, 0}, // caught up
	}
	for i, w := range want {
		if lat[i] != w[0] || late[i] != w[1] {
			t.Errorf("request %d: latency %gms lateness %gms, want %gms and %gms", i, lat[i], late[i], w[0], w[1])
		}
	}
	if q, _, n := g.Latency.Tail(0.99); q != 0.5 || n != 30 {
		t.Errorf("30 samples support only a p50 tail, got p%g over %d", q*100, n)
	}
	if max := g.Latency.Quantile(1); max != 100 {
		t.Errorf("max latency %gms, want the 100ms stall", max)
	}
}

func TestOpenLoopStopsAtDeadline(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.Now()
	var g *openLoop
	g = newOpenLoop(100, 1, clk, func(i int) bool {
		if i == 4 {
			g.Stop(start.Add(45 * time.Millisecond))
		}
		return true
	})
	g.Run(start, 1000)
	if g.Sent != 5 {
		t.Errorf("sent %d requests, want the 5 due before the 45ms deadline", g.Sent)
	}
}

// TestOpenLoopSendersShareTheSchedule: concurrent senders send every
// scheduled request exactly once.
func TestOpenLoopSendersShareTheSchedule(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	var mu sync.Mutex
	seen := make(map[int]int)
	g := newOpenLoop(1000, genSenders, clk, func(i int) bool {
		clk.advance(100 * time.Microsecond)
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return true
	})
	g.Run(clk.Now(), 200)
	if g.Sent != 200 || len(seen) != 200 {
		t.Fatalf("sent %d, distinct %d, want 200", g.Sent, len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("request %d sent %d times", i, n)
		}
	}
	if g.Latency.N() != 200 || g.Late.N() != 200 {
		t.Errorf("recorded %d latencies and %d lateness samples, want 200", g.Latency.N(), g.Late.N())
	}
}

// TestOpenLoopRecordsInRequestOrder: with two senders, a slow request 0
// is answered after request 1, yet sample i is still request i, so runs
// can be compared request by request.
func TestOpenLoopRecordsInRequestOrder(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	release := make(chan struct{})
	g := newOpenLoop(1000, genSenders, clk, func(i int) bool {
		switch i {
		case 0:
			<-release // answered only once request 1 is done
			clk.advance(5 * time.Millisecond)
		case 1:
			clk.advance(2 * time.Millisecond)
			close(release)
		}
		return true
	})
	g.Run(clk.Now(), 2)
	// Request 1 is due at 1ms and answered at 3ms; request 0 is due at
	// 0ms and answered 5ms later, at 8ms.
	if got := g.Latency.vals; len(got) != 2 || got[0] != 8 || got[1] != 2 {
		t.Errorf("latencies %v, want [8 2]", got)
	}
}
