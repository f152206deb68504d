package core

import (
	"repro/internal/codec"
	"repro/internal/collective"
)

// Typed convenience wrappers.  The runtime moves raw bytes; these helpers
// marshal Go numeric slices through the little-endian payloads of
// internal/codec.  They allocate a scratch payload per call; performance-
// critical inner loops should marshal once and reuse byte buffers via the
// raw calls.

// SendFloat64s sends vals to dst with tag.
func (c *Comm) SendFloat64s(vals []float64, dst, tag int) {
	c.Send(codec.Float64Bytes(vals), dst, tag)
}

// RecvFloat64s receives exactly len(vals) float64s from src with tag.
func (c *Comm) RecvFloat64s(vals []float64, src, tag int) {
	b := make([]byte, 8*len(vals))
	n := c.Recv(b, src, tag)
	codec.GetFloat64s(vals[:n/8], b[:n])
}

// AllreduceFloat64s element-wise reduces in into out across all ranks.
func (c *Comm) AllreduceFloat64s(in, out []float64, op collective.Op) {
	ib := codec.Float64Bytes(in)
	ob := make([]byte, len(ib))
	c.Allreduce(ib, ob, op, collective.Float64)
	codec.GetFloat64s(out, ob)
}

// AllreduceFloat64 reduces a single float64 across all ranks.
func (c *Comm) AllreduceFloat64(v float64, op collective.Op) float64 {
	out := make([]float64, 1)
	c.AllreduceFloat64s([]float64{v}, out, op)
	return out[0]
}

// AllreduceInt64 reduces a single int64 across all ranks.
func (c *Comm) AllreduceInt64(v int64, op collective.Op) int64 {
	ib := codec.Int64Bytes([]int64{v})
	ob := make([]byte, 8)
	c.Allreduce(ib, ob, op, collective.Int64)
	out := make([]int64, 1)
	codec.GetInt64s(out, ob)
	return out[0]
}

// ReduceFloat64s reduces in to root's out (out may be nil elsewhere).
func (c *Comm) ReduceFloat64s(in, out []float64, root int, op collective.Op) {
	ib := codec.Float64Bytes(in)
	var ob []byte
	if out != nil {
		ob = make([]byte, len(ib))
	}
	c.Reduce(ib, ob, root, op, collective.Float64)
	if out != nil && c.Rank() == root {
		codec.GetFloat64s(out, ob)
	}
}

// BcastFloat64s broadcasts root's vals to every rank's vals.
func (c *Comm) BcastFloat64s(vals []float64, root int) {
	b := make([]byte, 8*len(vals))
	if c.Rank() == root {
		codec.PutFloat64s(b, vals)
	}
	c.Bcast(b, root)
	codec.GetFloat64s(vals, b)
}

// BcastInt64 broadcasts a single int64 from root.
func (c *Comm) BcastInt64(v int64, root int) int64 {
	b := codec.Int64Bytes([]int64{v})
	c.Bcast(b, root)
	out := make([]int64, 1)
	codec.GetInt64s(out, b)
	return out[0]
}
