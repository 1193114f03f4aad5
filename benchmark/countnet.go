package main

// countNet wraps the connection seam (router.Options.Transport and the
// transport handed to server.Serve). It passes every call through and counts
// dials, messages and bytes. Only dialled connections are wrapped: a request
// is one Write on the dialling side and a reply is what that side reads, so
// both directions are seen without counting any byte twice.

import "sync/atomic"

type countNet struct {
	inner netTransport

	dials             atomic.Int64
	msgsOut, bytesOut atomic.Int64 // requests: Write calls and their bytes
	bytesIn           atomic.Int64 // replies
}

func newCountNet(inner netTransport) *countNet { return &countNet{inner: inner} }

func (c *countNet) Dial(addr string) (netConn, error) {
	conn, err := c.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.dials.Add(1)
	return &countConn{netConn: conn, net: c}, nil
}

func (c *countNet) Listen(addr string) (netListener, error) { return c.inner.Listen(addr) }

type countConn struct {
	netConn
	net *countNet
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.netConn.Write(p)
	c.net.msgsOut.Add(1)
	c.net.bytesOut.Add(int64(n))
	return n, err
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.netConn.Read(p)
	c.net.bytesIn.Add(int64(n))
	return n, err
}

// netCounts is a point-in-time copy of the counters.
type netCounts struct{ dials, msgsOut, bytesOut, bytesIn int64 }

func (c *countNet) counts() netCounts {
	return netCounts{c.dials.Load(), c.msgsOut.Load(), c.bytesOut.Load(), c.bytesIn.Load()}
}

func (a netCounts) sub(b netCounts) netCounts {
	return netCounts{a.dials - b.dials, a.msgsOut - b.msgsOut, a.bytesOut - b.bytesOut, a.bytesIn - b.bytesIn}
}
