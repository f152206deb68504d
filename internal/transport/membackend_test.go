package transport

import (
	"sync"
	"sync/atomic"
	"time"
)

// newMemNet is a MemNet whose node backends count their connections' writes,
// for comparison with the link's Writes counter, and can go deaf: what they
// read is held back from the link, which acks nothing meanwhile.  They can
// also be paced: each read then takes at most paceChunk bytes, after a pause.
func newMemNet() *MemNet { return NewMemNet() }

// backend returns the Backend of one node.
func (n *MemNet) backend() *memBackend {
	b := &memBackend{Backend: n.Backend()}
	b.cond.L = &b.mu
	return b
}

type memBackend struct {
	Backend
	writes atomic.Int64 // successful Write calls on this node's connections
	mu     sync.Mutex   // guards deaf and every connection's closed
	cond   sync.Cond
	deaf   bool
	pace   atomic.Int64 // pause before each read, in nanoseconds (0 = unpaced)
}

// paceChunk is the most a paced read takes.
const paceChunk = 4 << 10

// setDeaf holds back (or releases) what the node's connections read.
func (b *memBackend) setDeaf(deaf bool) { b.update(func() { b.deaf = deaf }) }

// update changes what held reads wait on.
func (b *memBackend) update(f func()) {
	b.mu.Lock()
	f()
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *memBackend) Listen(addr string) (Listener, error) {
	ln, err := b.Backend.Listen(addr)
	return countingListener{ln, b}, err
}

func (b *memBackend) Dial(addr string, timeout time.Duration) (Conn, error) {
	return b.wrap(b.Backend.Dial(addr, timeout))
}

func (b *memBackend) wrap(c Conn, err error) (Conn, error) {
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, be: b}, nil
}

type countingListener struct {
	Listener
	be *memBackend
}

func (l countingListener) Accept() (Conn, error) { return l.be.wrap(l.Listener.Accept()) }

type countingConn struct {
	Conn
	be     *memBackend
	closed bool
}

func (c *countingConn) Write(p []byte) (n int, err error) {
	if n, err = c.Conn.Write(p); err == nil {
		c.be.writes.Add(1)
	}
	return n, err
}

// Read hands over what arrived once the node hears again (or closes).
func (c *countingConn) Read(p []byte) (int, error) {
	if d := c.be.pace.Load(); d > 0 {
		time.Sleep(time.Duration(d))
		p = p[:min(len(p), paceChunk)]
	}
	n, err := c.Conn.Read(p)
	c.be.mu.Lock()
	for c.be.deaf && !c.closed {
		c.be.cond.Wait()
	}
	c.be.mu.Unlock()
	return n, err
}

func (c *countingConn) Close() error {
	c.be.update(func() { c.closed = true })
	return c.Conn.Close()
}
