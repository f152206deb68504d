package pure

import (
	"repro/internal/codec"
	"repro/internal/core"
)

// Comm is a communicator handle: a group of ranks that can exchange
// point-to-point messages and execute collectives.  Semantics match MPI
// (see the package documentation for the messaging rules); the methods,
// including the typed helpers (SendFloat64s, AllreduceInt64, ...), are
// documented on repro/internal/core's Comm.
type Comm = core.Comm

// Channel is a persistent point-to-point endpoint: the (peer, tag, comm)
// resolution, trace/metric handles, and request pool are bound once, so its
// Send/Recv fast paths are allocation-free for eager payloads and Isend/Irecv
// recycle pooled requests.  Hoist endpoints out of hot loops:
//
//	ping := c.SendChannel(peer, 0)
//	pong := c.RecvChannel(peer, 1)
//	for i := 0; i < iters; i++ {
//		ping.Send(buf)
//		pong.Recv(buf)
//	}
//
// A Channel belongs to the rank that created it and must not be shared.
type Channel = core.Channel

// PersistentOp is a prebound Start/Wait operation (the analogue of MPI's
// persistent requests, MPI_Send_init / MPI_Recv_init).
type PersistentOp = core.PersistentOp

// Startall posts every persistent operation (MPI_Startall), receives first.
func Startall(ops ...*PersistentOp) { core.Startall(ops...) }

// WaitallOps completes every persistent operation (MPI_Waitall over
// persistent requests).
func WaitallOps(ops ...*PersistentOp) { core.WaitallOps(ops...) }

// Payload codecs: the runtime moves raw bytes, and these marshal Go numeric
// slices through little-endian payloads, the fixed on-wire layout
// implemented once in internal/codec.

// Float64Bytes encodes vals into a fresh payload.
func Float64Bytes(vals []float64) []byte { return codec.Float64Bytes(vals) }

// PutFloat64s encodes vals into b, which must hold 8*len(vals) bytes.
func PutFloat64s(b []byte, vals []float64) { codec.PutFloat64s(b, vals) }

// GetFloat64s decodes len(vals) float64s from b into vals.
func GetFloat64s(vals []float64, b []byte) { codec.GetFloat64s(vals, b) }

// Int64Bytes encodes vals into a fresh payload.
func Int64Bytes(vals []int64) []byte { return codec.Int64Bytes(vals) }

// PutInt64s encodes vals into b, which must hold 8*len(vals) bytes.
func PutInt64s(b []byte, vals []int64) { codec.PutInt64s(b, vals) }

// GetInt64s decodes len(vals) int64s from b.
func GetInt64s(vals []int64, b []byte) { codec.GetInt64s(vals, b) }
