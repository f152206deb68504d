package transport

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// MemNet is an in-memory network for nodes that run as goroutines of one
// process; each node takes its own Backend from it, and an address is any
// string.  A connection is a pair of unbounded byte pipes: a Write never
// blocks, and a Close ends the peer's stream after what was written, as a TCP
// FIN does (a graceful Bye is never lost), and fails the closer's own reads.
type MemNet struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

// NewMemNet returns an empty in-memory network.
func NewMemNet() *MemNet { return &MemNet{listeners: map[string]*memListener{}} }

// Backend returns a node's Backend on the network.
func (n *MemNet) Backend() Backend { return memNode{n} }

type memNode struct{ net *MemNet }

func (memNode) Name() string { return "mem" }

func (b memNode) Listen(addr string) (Listener, error) {
	b.net.mu.Lock()
	defer b.net.mu.Unlock()
	if _, dup := b.net.listeners[addr]; dup {
		return nil, fmt.Errorf("mem: %s already bound", addr)
	}
	ln := &memListener{net: b.net, addr: addr, conns: make(chan *memConn, 16), done: make(chan struct{})}
	b.net.listeners[addr] = ln
	return ln, nil
}

func (b memNode) Dial(addr string, timeout time.Duration) (Conn, error) {
	b.net.mu.Lock()
	ln := b.net.listeners[addr]
	b.net.mu.Unlock()
	if ln == nil {
		return nil, fmt.Errorf("mem: connection refused: %s", addr)
	}
	ab, ba := newMemPipe(), newMemPipe()
	select {
	case ln.conns <- &memConn{in: ab, out: ba}:
		return &memConn{in: ba, out: ab}, nil
	case <-ln.done:
		return nil, fmt.Errorf("mem: connection refused: %s", addr)
	case <-time.After(timeout):
		return nil, os.ErrDeadlineExceeded
	}
}

type memListener struct {
	net   *MemNet
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
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

func (l *memListener) Addr() string { return l.addr }

// memPipe is one direction of a connection: the bytes written and not yet
// read are buf[off:].
type memPipe struct {
	mu       sync.Mutex
	cond     sync.Cond
	buf      []byte
	off      int
	eof      bool // the writer closed: the reader drains buf, then reads io.EOF
	broken   bool // the reader closed: reads and writes fail
	deadline time.Time
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.cond.L = &p.mu
	return p
}

// update changes the pipe's state under its lock and wakes its reader.
func (p *memPipe) update(f func()) {
	p.mu.Lock()
	f()
	p.cond.Broadcast()
	p.mu.Unlock()
}

type memConn struct {
	in, out *memPipe
}

func (c *memConn) Read(b []byte) (int, error) {
	p := c.in
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		switch {
		case p.broken:
			return 0, io.ErrClosedPipe
		case p.off < len(p.buf):
			n := copy(b, p.buf[p.off:])
			if p.off += n; p.off == len(p.buf) {
				p.buf, p.off = p.buf[:0], 0
				if cap(p.buf) > bufKeep {
					p.buf = nil
				}
			}
			return n, nil
		case p.eof:
			return 0, io.EOF
		case !p.deadline.IsZero() && !time.Now().Before(p.deadline):
			return 0, os.ErrDeadlineExceeded
		}
		p.cond.Wait()
	}
}

func (c *memConn) Write(b []byte) (int, error) {
	p := c.out
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.eof || p.broken {
		return 0, io.ErrClosedPipe
	}
	if p.off > 0 && p.off >= len(p.buf)-p.off {
		// More read than unread: slide the rest down, so the buffer stays bounded.
		p.buf, p.off = p.buf[:copy(p.buf, p.buf[p.off:])], 0
	}
	p.buf = append(p.buf, b...)
	p.cond.Broadcast()
	return len(b), nil
}

// Close ends the outbound stream after its unread bytes and breaks the
// inbound one.
func (c *memConn) Close() error {
	c.out.update(func() { c.out.eof = true })
	c.in.update(func() { c.in.broken = true })
	return nil
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	p := c.in
	p.update(func() { p.deadline = t })
	if !t.IsZero() {
		time.AfterFunc(time.Until(t), func() { p.update(func() {}) })
	}
	return nil
}

func (c *memConn) SetWriteDeadline(time.Time) error { return nil } // writes never block
