package transport

import (
	"io"
	"net"
	"time"
)

// Backend abstracts the byte-stream layer under the link protocol.  The
// default is TCP; a QUIC- or RDMA-style transport slots in by implementing
// these three interfaces — the link layer only needs ordered reliable byte
// streams with explicit connect/accept, and supplies its own framing,
// sequencing and failure detection on top.
type Backend interface {
	// Name identifies the backend in diagnostics ("tcp").
	Name() string
	// Listen binds the node's accept endpoint.
	Listen(addr string) (Listener, error)
	// Dial opens a connection to a peer's accept endpoint, bounded by
	// timeout.
	Dial(addr string, timeout time.Duration) (Conn, error)
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr is the bound address (resolves ":0" to the picked port).
	Addr() string
}

// Conn is one established byte-stream connection.
type Conn interface {
	io.ReadWriteCloser
	// SetReadDeadline bounds blocking reads (used for handshake timeouts).
	SetReadDeadline(t time.Time) error
	// SetWriteDeadline bounds blocking writes, so a peer that stops draining
	// its socket cannot wedge the sender behind a full kernel buffer.
	SetWriteDeadline(t time.Time) error
	// RemoteAddr names the peer endpoint for diagnostics.
	RemoteAddr() string
}

// TCP returns the TCP backend.
func TCP() Backend { return tcpBackend{} }

type tcpBackend struct{}

func (tcpBackend) Name() string { return "tcp" }

func (tcpBackend) Listen(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return tcpListener{ln}, nil
}

func (tcpBackend) Dial(addr string, timeout time.Duration) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return wrapTCP(c), nil
}

type tcpListener struct{ ln net.Listener }

func (l tcpListener) Accept() (Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return wrapTCP(c), nil
}

func (l tcpListener) Close() error { return l.ln.Close() }
func (l tcpListener) Addr() string { return l.ln.Addr().String() }

// wrapTCP disables Nagle's algorithm: the runtime's messages are latency-
// critical and the link layer does its own combining, clocked by its own
// acks (see link), so the kernel delaying small writes only adds RTTs.
func wrapTCP(c net.Conn) Conn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return tcpConn{c}
}

type tcpConn struct{ net.Conn }

func (c tcpConn) RemoteAddr() string { return c.Conn.RemoteAddr().String() }
