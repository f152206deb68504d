package mpibase

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
)

func init() {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
}

func run(t *testing.T, nranks int, main func(p *Proc)) {
	t.Helper()
	if err := Run(Config{NRanks: nranks}, main); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := Run(Config{NRanks: 0}, func(*Proc) {}); err == nil {
		t.Fatal("want error for zero ranks")
	}
	err := Run(Config{NRanks: 2}, func(p *Proc) {
		if p.ID() == 0 {
			panic("kaboom")
		}
	})
	if err == nil {
		t.Fatal("want panic propagation")
	}
}

func TestSendRecvEager(t *testing.T) {
	run(t, 2, func(p *Proc) {
		c := p.World()
		if p.ID() == 0 {
			c.Send([]byte("mpi"), 1, 4)
		} else {
			buf := make([]byte, 8)
			n := c.Recv(buf, 0, 4)
			if string(buf[:n]) != "mpi" {
				t.Errorf("got %q", buf[:n])
			}
		}
	})
}

func TestSendRecvRendezvous(t *testing.T) {
	const size = 32 << 10
	run(t, 2, func(p *Proc) {
		c := p.World()
		if p.ID() == 0 {
			c.Send(bytes.Repeat([]byte{7}, size), 1, 0)
		} else {
			buf := make([]byte, size)
			n := c.Recv(buf, 0, 0)
			if n != size || buf[size-1] != 7 {
				t.Errorf("n=%d last=%d", n, buf[size-1])
			}
		}
	})
}

func TestRecvPostedBeforeSend(t *testing.T) {
	run(t, 2, func(p *Proc) {
		c := p.World()
		if p.ID() == 1 {
			buf := make([]byte, 8)
			req := c.Irecv(buf, 0, 0) // post first
			c.Send([]byte{9}, 0, 1)   // tell rank 0 we are ready
			c.Wait(req)
			if buf[0] != 77 {
				t.Errorf("got %d", buf[0])
			}
		} else {
			sig := make([]byte, 1)
			c.Recv(sig, 1, 1)
			c.Send([]byte{77}, 1, 0)
		}
	})
}

func TestNonOvertakingOrder(t *testing.T) {
	const n = 300
	run(t, 2, func(p *Proc) {
		c := p.World()
		if p.ID() == 0 {
			msg := make([]byte, 8)
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(msg, uint64(i))
				c.Send(msg, 1, 2)
			}
		} else {
			buf := make([]byte, 8)
			for i := 0; i < n; i++ {
				c.Recv(buf, 0, 2)
				if got := binary.LittleEndian.Uint64(buf); got != uint64(i) {
					t.Fatalf("message %d arrived as %d", i, got)
				}
			}
		}
	})
}

func TestIsendIrecvWaitall(t *testing.T) {
	run(t, 2, func(p *Proc) {
		c := p.World()
		if p.ID() == 0 {
			var reqs []*Request
			for i := 0; i < 5; i++ {
				reqs = append(reqs, c.Isend([]byte{byte(10 + i)}, 1, i))
			}
			c.Waitall(reqs...)
		} else {
			bufs := make([][]byte, 5)
			var reqs []*Request
			for i := 4; i >= 0; i-- {
				bufs[i] = make([]byte, 1)
				reqs = append(reqs, c.Irecv(bufs[i], 0, i))
			}
			c.Waitall(reqs...)
			for i := 0; i < 5; i++ {
				if bufs[i][0] != byte(10+i) {
					t.Errorf("tag %d: got %d", i, bufs[i][0])
				}
			}
		}
	})
}

func TestBarrier(t *testing.T) {
	const n = 7
	var counter atomic.Int64
	run(t, n, func(p *Proc) {
		c := p.World()
		for round := 1; round <= 8; round++ {
			counter.Add(1)
			c.Barrier()
			if got := counter.Load(); got != int64(round*n) {
				t.Errorf("round %d: counter %d, want %d", round, got, round*n)
			}
			c.Barrier()
		}
	})
}

func TestBcastAllRoots(t *testing.T) {
	const n = 5
	run(t, n, func(p *Proc) {
		c := p.World()
		for root := 0; root < n; root++ {
			buf := make([]byte, 16)
			if p.ID() == root {
				for i := range buf {
					buf[i] = byte(root + 1)
				}
			}
			c.Bcast(buf, root)
			if buf[0] != byte(root+1) || buf[15] != byte(root+1) {
				t.Errorf("root %d rank %d: bad payload", root, p.ID())
			}
			c.Barrier()
		}
	})
}

func TestReduceAndAllreduce(t *testing.T) {
	const n = 6
	run(t, n, func(p *Proc) {
		c := p.World()
		for root := 0; root < n; root += 2 {
			out := make([]byte, 8)
			in := codec.Float64Bytes([]float64{float64(p.ID() + 1)})
			c.Reduce(in, out, root, Sum, Float64)
			if p.ID() == root {
				got := make([]float64, 1)
				codec.GetFloat64s(got, out)
				if got[0] != 21 {
					t.Errorf("root %d: reduce = %v", root, got[0])
				}
			}
			c.Barrier()
		}
		if got := c.AllreduceFloat64(float64(p.ID()), Max); got != n-1 {
			t.Errorf("allreduce max = %v", got)
		}
		if got := c.AllreduceInt64(2, Prod); got != 64 {
			t.Errorf("allreduce prod = %d", got)
		}
	})
}

func TestAllreduceVector(t *testing.T) {
	run(t, 4, func(p *Proc) {
		c := p.World()
		in := []float64{1, float64(p.ID())}
		out := make([]float64, 2)
		c.AllreduceFloat64s(in, out, Sum)
		if out[0] != 4 || out[1] != 6 {
			t.Errorf("got %v", out)
		}
	})
}

func TestCommSplit(t *testing.T) {
	const n = 8
	run(t, n, func(p *Proc) {
		c := p.World()
		sub := c.Split(p.ID()%2, p.ID())
		if sub.Size() != 4 || sub.Rank() != p.ID()/2 {
			t.Errorf("rank %d: sub %d/%d", p.ID(), sub.Rank(), sub.Size())
		}
		want := 12.0
		if p.ID()%2 == 1 {
			want = 16.0
		}
		if got := sub.AllreduceFloat64(float64(p.ID()), Sum); got != want {
			t.Errorf("rank %d: sub allreduce %v, want %v", p.ID(), got, want)
		}
		if none := c.Split(-1, 0); none != nil {
			t.Error("negative color should return nil")
		}
	})
}

func TestTypedSendRecv(t *testing.T) {
	run(t, 2, func(p *Proc) {
		c := p.World()
		if p.ID() == 0 {
			c.SendFloat64s([]float64{3.14, 2.71}, 1, 0)
		} else {
			got := make([]float64, 2)
			c.RecvFloat64s(got, 0, 0)
			if got[0] != 3.14 || got[1] != 2.71 {
				t.Errorf("got %v", got)
			}
		}
		vals := []float64{0}
		if p.ID() == 0 {
			vals[0] = 42
		}
		c.BcastFloat64s(vals, 0)
		if vals[0] != 42 {
			t.Errorf("bcast got %v", vals[0])
		}
	})
}

func TestTagAndPeerValidation(t *testing.T) {
	run(t, 2, func(p *Proc) {
		if p.ID() != 0 {
			return
		}
		c := p.World()
		mustPanic := func(name string, f func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}
		mustPanic("reserved tag", func() { c.Send([]byte{1}, 1, collTagBase) })
		mustPanic("bad peer", func() { c.Send([]byte{1}, 5, 0) })
		mustPanic("self-send", func() { c.Send([]byte{1}, 0, 0) })
		mustPanic("nil reduce out at root", func() { c.Reduce([]byte{1}, nil, 0, Sum, Uint8) })
	})
}

func TestRendezvousSenderBlocksUntilCopied(t *testing.T) {
	const size = 64 << 10
	var sendReturned atomic.Bool
	run(t, 2, func(p *Proc) {
		c := p.World()
		if p.ID() == 0 {
			buf := bytes.Repeat([]byte{1}, size)
			c.Send(buf, 1, 0)
			sendReturned.Store(true)
			// Buffer may be reused now.
			for i := range buf {
				buf[i] = 0
			}
		} else {
			// Delay posting the receive; the send must not complete early.
			for i := 0; i < 1000; i++ {
				if sendReturned.Load() {
					t.Error("rendezvous send returned before receive was posted")
					break
				}
				runtime.Gosched()
			}
			dst := make([]byte, size)
			c.Recv(dst, 0, 0)
			if dst[size-1] != 1 {
				t.Error("payload corrupted")
			}
		}
	})
}

func TestGatherAllgatherScatter(t *testing.T) {
	const n = 4
	run(t, n, func(p *Proc) {
		c := p.World()
		// Gather to rank 1.
		in := []byte{byte(p.ID())}
		var out []byte
		if p.ID() == 1 {
			out = make([]byte, n)
		}
		c.Gather(in, out, 1)
		if p.ID() == 1 && !bytes.Equal(out, []byte{0, 1, 2, 3}) {
			t.Errorf("gather = % x", out)
		}
		c.Barrier()
		// Allgather.
		all := make([]byte, n)
		c.Allgather(in, all)
		if !bytes.Equal(all, []byte{0, 1, 2, 3}) {
			t.Errorf("allgather = % x", all)
		}
		// Scatter from rank 3.
		var sin []byte
		if p.ID() == 3 {
			sin = []byte{30, 31, 32, 33}
		}
		sout := make([]byte, 1)
		c.Scatter(sin, sout, 3)
		if sout[0] != byte(30+p.ID()) {
			t.Errorf("scatter = %d", sout[0])
		}
	})
}

func TestSendrecvRing(t *testing.T) {
	const n = 5
	run(t, n, func(p *Proc) {
		c := p.World()
		next := (p.ID() + 1) % n
		prev := (p.ID() + n - 1) % n
		out := []byte{byte(p.ID())}
		in := make([]byte, 1)
		for i := 0; i < 30; i++ {
			if got := c.Sendrecv(out, next, 3, in, prev, 3); got != 1 || in[0] != byte(prev) {
				t.Errorf("iter %d: got %d/%d", i, got, in[0])
				return
			}
		}
	})
}
