package comm

import (
	"bytes"
	"math"
	"testing"

	"repro/mpibase"
	"repro/pure"
)

// collectBytes runs body over both runtimes and returns each rank's output
// buffer per runtime, so the test can require bit-identical results.
func collectBytes(t *testing.T, nranks int, body func(b Backend) []byte) (purer, mpir [][]byte) {
	t.Helper()
	purer = make([][]byte, nranks)
	if err := RunPure(pure.Config{NRanks: nranks}, func(b Backend) {
		purer[b.Rank()] = body(b)
	}); err != nil {
		t.Fatalf("pure: %v", err)
	}
	mpir = make([][]byte, nranks)
	if err := RunMPI(mpibase.Config{NRanks: nranks}, func(b Backend) {
		mpir[b.Rank()] = body(b)
	}); err != nil {
		t.Fatalf("mpi: %v", err)
	}
	return purer, mpir
}

// requireIdentical asserts each rank produced the same bytes on both runtimes.
func requireIdentical(t *testing.T, what string, purer, mpir [][]byte) {
	t.Helper()
	for r := range purer {
		if !bytes.Equal(purer[r], mpir[r]) {
			t.Errorf("%s rank %d: pure %x != mpi %x", what, r, purer[r], mpir[r])
		}
	}
}

func TestBackendReduceBitIdentical(t *testing.T) {
	const nranks, root = 4, 2
	purer, mpir := collectBytes(t, nranks, func(b Backend) []byte {
		in := pure.Float64Bytes([]float64{float64(b.Rank()) + 0.25, 1.5, -3})
		out := make([]byte, len(in))
		b.Reduce(in, out, root, Sum, Float64)
		if b.Rank() != root {
			return nil // only the root's buffer is defined
		}
		return out
	})
	requireIdentical(t, "Reduce", purer, mpir)
	want := pure.Float64Bytes([]float64{0.25 + 1.25 + 2.25 + 3.25, 6, -12})
	if !bytes.Equal(purer[root], want) {
		t.Errorf("Reduce root bytes = %x, want %x", purer[root], want)
	}
}

func TestBackendGatherBitIdentical(t *testing.T) {
	const nranks, root = 4, 1
	purer, mpir := collectBytes(t, nranks, func(b Backend) []byte {
		in := pure.Float64Bytes([]float64{float64(b.Rank()), math.Sqrt(float64(b.Rank() + 1))})
		var out []byte
		if b.Rank() == root {
			out = make([]byte, b.Size()*len(in))
		}
		b.Gather(in, out, root)
		return out
	})
	requireIdentical(t, "Gather", purer, mpir)
	var want []float64
	for r := 0; r < nranks; r++ {
		want = append(want, float64(r), math.Sqrt(float64(r+1)))
	}
	if !bytes.Equal(purer[root], pure.Float64Bytes(want)) {
		t.Errorf("Gather root = %x", purer[root])
	}
}

func TestBackendScatterBitIdentical(t *testing.T) {
	const nranks, root = 4, 0
	purer, mpir := collectBytes(t, nranks, func(b Backend) []byte {
		out := make([]byte, 16)
		var in []byte
		if b.Rank() == root {
			var vals []float64
			for r := 0; r < nranks; r++ {
				vals = append(vals, float64(r)*10, float64(r)*10+1)
			}
			in = pure.Float64Bytes(vals)
		}
		b.Scatter(in, out, root)
		return out
	})
	requireIdentical(t, "Scatter", purer, mpir)
	for r := 0; r < nranks; r++ {
		want := pure.Float64Bytes([]float64{float64(r) * 10, float64(r)*10 + 1})
		if !bytes.Equal(purer[r], want) {
			t.Errorf("Scatter rank %d = %x, want %x", r, purer[r], want)
		}
	}
}

// TestBackendCollectivesAcrossNodes runs the same three collectives on a
// two-node Pure placement: the leader-bridged paths must agree with the
// single-node MPI baseline bit for bit.
func TestBackendCollectivesAcrossNodes(t *testing.T) {
	const nranks, root = 4, 3
	multiCfg := pure.Config{
		NRanks:       nranks,
		Spec:         pure.CoriNode(2),
		RanksPerNode: 2,
	}
	body := func(b Backend) []byte {
		// Dyadic values keep every fold association exact, so the two-level
		// (node-then-leader) Pure reduction and the flat MPI reduction cannot
		// differ even in the last ulp.
		in := pure.Float64Bytes([]float64{float64(b.Rank())*0.5 + 0.25, float64(b.Rank())})
		red := make([]byte, len(in))
		b.Reduce(in, red, root, Sum, Float64)
		gat := make([]byte, b.Size()*len(in))
		b.Gather(in, gat, root)
		if b.Rank() != root {
			return nil
		}
		return append(red, gat...)
	}
	multi := make([][]byte, nranks)
	if err := RunPure(multiCfg, func(b Backend) { multi[b.Rank()] = body(b) }); err != nil {
		t.Fatalf("pure multi-node: %v", err)
	}
	mpir := make([][]byte, nranks)
	if err := RunMPI(mpibase.Config{NRanks: nranks}, func(b Backend) { mpir[b.Rank()] = body(b) }); err != nil {
		t.Fatalf("mpi: %v", err)
	}
	requireIdentical(t, "multi-node Reduce+Gather", multi, mpir)
}
