package pure

import (
	"bytes"
	"testing"
)

func TestGatherToEveryRoot(t *testing.T) {
	const n = 5
	err := Run(Config{NRanks: n}, func(r *Rank) {
		c := r.World()
		for root := 0; root < n; root++ {
			in := []byte{byte(r.ID()), byte(r.ID() + 100)}
			var out []byte
			if r.ID() == root {
				out = make([]byte, n*2)
			}
			c.Gather(in, out, root)
			if r.ID() == root {
				for cr := 0; cr < n; cr++ {
					if out[cr*2] != byte(cr) || out[cr*2+1] != byte(cr+100) {
						t.Errorf("root %d: slot %d = % x", root, cr, out[cr*2:cr*2+2])
					}
				}
			}
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	const n = 4
	err := Run(Config{NRanks: n}, func(r *Rank) {
		c := r.World()
		in := []byte{byte(10 + r.ID())}
		out := make([]byte, n)
		c.Allgather(in, out)
		if !bytes.Equal(out, []byte{10, 11, 12, 13}) {
			t.Errorf("rank %d: allgather = % x", r.ID(), out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatter(t *testing.T) {
	const n = 4
	err := Run(Config{NRanks: n}, func(r *Rank) {
		c := r.World()
		var in []byte
		if r.ID() == 2 {
			in = []byte{0, 0, 1, 1, 2, 2, 3, 3}
		}
		out := make([]byte, 2)
		c.Scatter(in, out, 2)
		if out[0] != byte(r.ID()) || out[1] != byte(r.ID()) {
			t.Errorf("rank %d: scatter = % x", r.ID(), out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterMultiNode(t *testing.T) {
	const n = 8
	err := Run(Config{
		NRanks:       n,
		Spec:         CoriNode(2),
		RanksPerNode: 4,
	}, func(r *Rank) {
		c := r.World()
		in := []byte{byte(r.ID())}
		out := make([]byte, n)
		c.Allgather(in, out)
		for i := 0; i < n; i++ {
			if out[i] != byte(i) {
				t.Errorf("rank %d: allgather[%d] = %d", r.ID(), i, out[i])
			}
		}
		back := make([]byte, 1)
		c.Scatter(out, back, 0)
		if back[0] != byte(r.ID()) {
			t.Errorf("rank %d: scatter-back = %d", r.ID(), back[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterValidation(t *testing.T) {
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		c := r.World()
		mustPanic := func(name string, f func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}
		mustPanic("short gather out", func() { c.Gather([]byte{1, 2}, make([]byte, 3), 0) })
		mustPanic("short scatter in", func() { c.Scatter(make([]byte, 3), make([]byte, 2), 0) })
		mustPanic("short allgather out", func() { c.Allgather(make([]byte, 4), make([]byte, 4)) })
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvRingNoDeadlock(t *testing.T) {
	// Every rank simultaneously exchanges with both ring neighbours — the
	// pattern that deadlocks naive blocking Send/Recv chains.
	const n = 6
	err := Run(Config{NRanks: n}, func(r *Rank) {
		c := r.World()
		next := (r.ID() + 1) % n
		prev := (r.ID() + n - 1) % n
		out := []byte{byte(r.ID())}
		in := make([]byte, 1)
		for i := 0; i < 50; i++ {
			got := c.Sendrecv(out, next, 5, in, prev, 5)
			if got != 1 || in[0] != byte(prev) {
				t.Errorf("rank %d iter %d: got %d bytes, value %d", r.ID(), i, got, in[0])
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvLargePayloads(t *testing.T) {
	const size = 32 << 10
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		c := r.World()
		peer := 1 - r.ID()
		out := make([]byte, size)
		for i := range out {
			out[i] = byte(r.ID() + 1)
		}
		in := make([]byte, size)
		n := c.Sendrecv(out, peer, 0, in, peer, 0)
		if n != size || in[0] != byte(peer+1) || in[size-1] != byte(peer+1) {
			t.Errorf("rank %d: n=%d first=%d", r.ID(), n, in[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
