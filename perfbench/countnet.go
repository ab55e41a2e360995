package main

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"dpsadopt/internal/transport"
)

// netCounts is shared by every day's counting network of one pass.
type netCounts struct {
	datagrams atomic.Int64
	bytes     atomic.Int64

	// Captured datagrams, for re-timing dnswire Pack and Unpack after
	// the pass. Capture stops at captureMax.
	captureMax int
	mu         sync.Mutex
	captured   [][]byte
}

func (c *netCounts) record(p []byte) {
	c.datagrams.Add(1)
	c.bytes.Add(int64(len(p)))
	if c.captureMax == 0 {
		return
	}
	c.mu.Lock()
	if len(c.captured) < c.captureMax {
		c.captured = append(c.captured, append([]byte(nil), p...))
	}
	c.mu.Unlock()
}

// countNet wraps a transport.Network and counts every datagram written
// through it. It implements transport.StreamNetwork by delegation, so
// the resolver's TCP fallback and the name servers' stream listeners
// keep working behind it.
type countNet struct {
	inner  transport.Network
	counts *netCounts
}

var errNoStreams = errors.New("perfbench: inner transport has no stream support")

func (n *countNet) Listen(addr netip.AddrPort) (transport.Conn, error) {
	c, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, counts: n.counts}, nil
}

func (n *countNet) Dial(local netip.Addr) (transport.Conn, error) {
	c, err := n.inner.Dial(local)
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, counts: n.counts}, nil
}

func (n *countNet) ListenStream(addr netip.AddrPort) (transport.StreamListener, error) {
	sn, ok := n.inner.(transport.StreamNetwork)
	if !ok {
		return nil, errNoStreams
	}
	return sn.ListenStream(addr)
}

func (n *countNet) DialStream(local netip.Addr, remote netip.AddrPort) (net.Conn, error) {
	sn, ok := n.inner.(transport.StreamNetwork)
	if !ok {
		return nil, errNoStreams
	}
	return sn.DialStream(local, remote)
}

type countConn struct {
	transport.Conn
	counts *netCounts
}

func (c *countConn) WriteTo(p []byte, to netip.AddrPort) error {
	c.counts.record(p)
	return c.Conn.WriteTo(p, to)
}
