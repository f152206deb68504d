package transport

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// memNet is an in-memory network for link tests: one memBackend per node,
// connections that are pairs of unbounded byte queues.  A Write never
// blocks and is counted against the writing node, so a test can compare the
// socket writes a burst really cost with the link's own Writes counter, and
// a node can be made deaf — its reads stall, so it acks nothing — to hold a
// frame unacked for as long as the test needs.
type memNet struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

func newMemNet() *memNet { return &memNet{listeners: map[string]*memListener{}} }

// backend returns the Backend of one node.
func (n *memNet) backend() *memBackend { return &memBackend{net: n} }

type memBackend struct {
	net    *memNet
	writes atomic.Int64 // Write calls on this node's connections

	mu   sync.Mutex
	deaf bool
	in   []*memPipe // inbound queues of this node's connections
}

// setDeaf stalls (or releases) every read on the node's connections.
func (b *memBackend) setDeaf(deaf bool) {
	b.mu.Lock()
	b.deaf = deaf
	pipes := append([]*memPipe(nil), b.in...)
	b.mu.Unlock()
	for _, p := range pipes {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

func (b *memBackend) isDeaf() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.deaf
}

func (b *memBackend) Name() string { return "mem" }

func (b *memBackend) Listen(addr string) (Listener, error) {
	b.net.mu.Lock()
	defer b.net.mu.Unlock()
	if _, dup := b.net.listeners[addr]; dup {
		return nil, fmt.Errorf("mem: %s already bound", addr)
	}
	// The accept queue holds dials that raced ahead of Accept; two nodes
	// dialing twice each is more than any test here produces.
	ln := &memListener{be: b, addr: addr, conns: make(chan *memConn, 16), done: make(chan struct{})}
	b.net.listeners[addr] = ln
	return ln, nil
}

func (b *memBackend) Dial(addr string, timeout time.Duration) (Conn, error) {
	b.net.mu.Lock()
	ln := b.net.listeners[addr]
	b.net.mu.Unlock()
	if ln == nil {
		return nil, fmt.Errorf("mem: connection refused: %s", addr)
	}
	ab, ba := newMemPipe(), newMemPipe()
	local := b.conn(ba, ab, addr)
	remote := ln.be.conn(ab, ba, "dialer")
	select {
	case ln.conns <- remote:
		return local, nil
	case <-ln.done:
		return nil, fmt.Errorf("mem: connection refused: %s", addr)
	case <-time.After(timeout):
		return nil, os.ErrDeadlineExceeded
	}
}

func (b *memBackend) conn(in, out *memPipe, peer string) *memConn {
	b.mu.Lock()
	b.in = append(b.in, in)
	b.mu.Unlock()
	return &memConn{be: b, in: in, out: out, peer: peer}
}

type memListener struct {
	be    *memBackend
	addr  string
	conns chan *memConn
	done  chan struct{}
	once  sync.Once
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, io.ErrClosedPipe
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.be.net.mu.Lock()
		delete(l.be.net.listeners, l.addr)
		l.be.net.mu.Unlock()
	})
	return nil
}

func (l *memListener) Addr() string { return l.addr }

// memPipe is one direction of a connection.
type memPipe struct {
	mu       sync.Mutex
	cond     *sync.Cond
	buf      []byte
	closed   bool
	deadline time.Time
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *memPipe) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

type memConn struct {
	be      *memBackend
	in, out *memPipe
	peer    string
}

func (c *memConn) Read(b []byte) (int, error) {
	p := c.in
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		switch {
		case p.closed:
			return 0, io.EOF
		case !p.deadline.IsZero() && !time.Now().Before(p.deadline):
			return 0, os.ErrDeadlineExceeded
		case len(p.buf) > 0 && !c.be.isDeaf():
			n := copy(b, p.buf)
			p.buf = p.buf[:copy(p.buf, p.buf[n:])]
			return n, nil
		}
		p.cond.Wait()
	}
}

func (c *memConn) Write(b []byte) (int, error) {
	p := c.out
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, io.ErrClosedPipe
	}
	c.be.writes.Add(1)
	p.buf = append(p.buf, b...)
	p.cond.Broadcast()
	return len(b), nil
}

// Close breaks the connection both ways at once, like a reset: bytes in
// flight are lost, which is the harsher case for the link protocol.
func (c *memConn) Close() error {
	c.in.close()
	c.out.close()
	return nil
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	p := c.in
	p.mu.Lock()
	p.deadline = t
	p.cond.Broadcast()
	p.mu.Unlock()
	if !t.IsZero() {
		time.AfterFunc(time.Until(t), func() {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		})
	}
	return nil
}

func (c *memConn) SetWriteDeadline(time.Time) error { return nil } // writes never block
func (c *memConn) RemoteAddr() string               { return c.peer }
