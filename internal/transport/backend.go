package transport

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
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
	return c
}

// ReserveLoopback picks n distinct free loopback addresses for the listeners
// a launcher or a test is about to start (transport nodes, worker monitors),
// by binding and releasing them.  The ports lie below the kernel's ephemeral
// range, because a port from ":0" is itself ephemeral: between its release
// and the real bind, a peer's own dial can be handed it as a source port —
// rare, but a launch that loses that race fails for no reason of its own.
// Each process walks the range from where its pid says and never revisits a
// port, so concurrent launchers (`go test ./...`) do not walk it in step.
func ReserveLoopback(n int) ([]string, error) {
	const lo, hi, perProcess = 10000, 30000, 512
	addrs := make([]string, 0, n)
	for tries := 0; len(addrs) < n; tries++ {
		if tries >= hi-lo {
			return nil, fmt.Errorf("transport: no %d free loopback ports in [%d, %d)", n, lo, hi)
		}
		addr := fmt.Sprintf("127.0.0.1:%d", lo+(os.Getpid()*perProcess+int(reservedPorts.Add(1)))%(hi-lo))
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue // taken by someone else; try the next one
		}
		ln.Close()
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// reservedPorts counts the ports this process has tried.
var reservedPorts atomic.Uint32
