package main

import (
	"encoding/binary"
	"testing"

	"repro/internal/apps/comd"
	"repro/internal/apps/statsd"
)

// The negative self-tests: a benchmark whose checks cannot fail is not
// checking.  Each verifier gets one correct and one corrupted output.

func TestCheckSeqFlippedSequenceNumber(t *testing.T) {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, echo(41))
	if checkSeq(buf, echo(41)) != 0 {
		t.Fatal("correct echo rejected")
	}
	buf[0] ^= 1
	if checkSeq(buf, echo(41)) == 0 {
		t.Fatal("flipped sequence number accepted")
	}
	binary.LittleEndian.PutUint64(buf, 41) // the request merely reflected
	if checkSeq(buf, echo(41)) == 0 {
		t.Fatal("reflected request accepted as an echo")
	}
}

func TestCheckProbesCorruptedPayload(t *testing.T) {
	w := newP2P(false, p2pSizes{}, 3)
	got := append([]byte(nil), w.payload...)
	if checkProbes(got, w.payload, false) != 0 || checkProbes(got, w.payload, true) != 0 {
		t.Fatal("intact payload rejected")
	}
	got[len(got)-1] ^= 0x80
	if checkProbes(got, w.payload, false) == 0 {
		t.Fatal("corrupted probe byte accepted")
	}
	got[len(got)-1] ^= 0x80
	got[12345] ^= 1 // not a probe offset: only the full compare sees it
	if checkProbes(got, w.payload, true) == 0 {
		t.Fatal("corrupted byte accepted by the full compare")
	}
}

func TestCheckReductionOffByOne(t *testing.T) {
	w := newColl(collSizes{}, 3)
	const i = 17
	out := make([]byte, largeBytes)
	for j, v := range w.baseSum {
		binary.LittleEndian.PutUint64(out[8*j:], uint64(v))
	}
	binary.LittleEndian.PutUint64(out, uint64(allreduceWant(i)))
	if checkReduction(out, i, w.baseSum, true) != 0 || checkReduction(out[:8], i, nil, true) != 0 {
		t.Fatal("correct reduction rejected")
	}
	binary.LittleEndian.PutUint64(out, uint64(allreduceWant(i)+1))
	if checkReduction(out, i, w.baseSum, false) == 0 {
		t.Fatal("off-by-one reduction accepted")
	}
	binary.LittleEndian.PutUint64(out, uint64(allreduceWant(i)))
	binary.LittleEndian.PutUint64(out[8*100:], uint64(w.baseSum[100]-1))
	if checkReduction(out, i, w.baseSum, true) == 0 {
		t.Fatal("off-by-one in a base slot accepted by the full check")
	}
}

func TestCheckBinsOneLostAtomicAdd(t *testing.T) {
	w := newPgas(pgasSizes{updatesPerRank: pgasRounds * pgasBatch}, 3)
	got := append([]int64(nil), w.oracle...)
	if checkBins(got, w.oracle) != 0 {
		t.Fatal("exact bins rejected")
	}
	got[77]-- // one AtomicAdd lost
	if checkBins(got, w.oracle) != 1 {
		t.Fatal("one lost AtomicAdd not counted")
	}
}

func TestCheckComdAlteredChecksum(t *testing.T) {
	ref := comd.Result{Atoms: 512, Kinetic: 0.0123, Potential: -4.56, Checksum: 9876.54321, Steps: 10}
	got := ref
	if checkComd(got, ref) != 0 {
		t.Fatal("identical result rejected")
	}
	got.Checksum *= 1 + 1e-6
	if checkComd(got, ref) == 0 {
		t.Fatal("altered checksum accepted")
	}
	got = ref
	got.Atoms--
	if checkComd(got, ref) == 0 {
		t.Fatal("lost atom accepted")
	}
}

func TestCheckStatsdInexact(t *testing.T) {
	ok := statsd.Result{Exact: true, Applied: 1000, Committed: 1000}
	if checkStatsd(ok, 1000) != 0 {
		t.Fatal("exact window rejected")
	}
	for name, bad := range map[string]statsd.Result{
		"zero-sum proof failed": {Exact: false, Applied: 1000, Committed: 1000},
		"event lost":            {Exact: true, Applied: 999, Committed: 999},
		"events dropped":        {Exact: true, Applied: 1000, Committed: 1000, Dropped: 3},
	} {
		if checkStatsd(bad, 1000) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCorruptedOracleFailsTheRun shows a failed check reaching the numbers
// the driver reads: a workload whose expected output is wrong reports
// failed > 0, so failed/attempted > 0 and correct is false.
func TestCorruptedOracleFailsTheRun(t *testing.T) {
	pw := newPgas(sizes.pgasHist.scaled(checkScale), 3)
	pw.oracle[5]++
	r, err := pw.rep(obsOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 {
		t.Error("pgas-hist: a histogram that differs from its oracle did not fail")
	}

	cw, err := newComd(false, sizes.comdBalanced.scaled(checkScale), 3)
	if err != nil {
		t.Fatal(err)
	}
	cw.ref.Checksum += 1
	if r, err = cw.rep(obsOpts{}); err != nil {
		t.Fatal(err)
	}
	if r.failed != r.ops {
		t.Errorf("comd-balanced: failed = %d, want every one of %d steps", r.failed, r.ops)
	}
}
