package main

import (
	"encoding/binary"
	"math"

	"repro/internal/apps/comd"
	"repro/internal/apps/statsd"
)

// The verifiers.  Each returns the number of failed checks (0 = the output
// is correct); workloads add that to the repetition's failed count, and
// verify_test.go feeds each a corrupted output to show it can fail.

// echo is the transform the ping-pong responder applies to a sequence
// number, so a reply that is merely the request reflected back fails.
func echo(seq uint64) uint64 { return seq*3 + 1 }

// checkSeq verifies one sequence-numbered payload header.
func checkSeq(payload []byte, want uint64) int64 {
	if len(payload) < 8 || binary.LittleEndian.Uint64(payload) != want {
		return 1
	}
	return 0
}

// checkProbes verifies a large payload at a few fixed offsets past its
// 8-byte sequence header; full compares every byte (done once per phase —
// comparing 64 KiB on every round trip would be a third of the round trip).
func checkProbes(got, want []byte, full bool) int64 {
	if len(got) != len(want) {
		return 1
	}
	if full {
		for i := 8; i < len(want); i++ {
			if got[i] != want[i] {
				return 1
			}
		}
		return 0
	}
	for _, i := range [...]int{8, len(want) / 3, len(want) / 2, len(want) - 1} {
		if got[i] != want[i] {
			return 1
		}
	}
	return 0
}

// allreduceWant is slot 0 of checked Allreduce call i: every rank
// contributes i*(rank+1) there, so the sum has the closed form i*n*(n+1)/2.
func allreduceWant(i int64) int64 { return i * nRanks * (nRanks + 1) / 2 }

// checkReduction verifies slot 0 of an int64 Allreduce result against the
// closed form, and the probed slots against the sum of the ranks' bases.
func checkReduction(out []byte, i int64, baseSum []int64, full bool) int64 {
	if int64(binary.LittleEndian.Uint64(out)) != allreduceWant(i) {
		return 1
	}
	n := len(out) / 8
	step := n/4 + 1
	if full {
		step = 1
	}
	for j := 1; j < n; j += step {
		if int64(binary.LittleEndian.Uint64(out[8*j:])) != baseSum[j] {
			return 1
		}
	}
	return 0
}

// checkBins compares histogram bins with the serial oracle bit-exactly.
func checkBins(got, oracle []int64) int64 {
	if len(got) != len(oracle) {
		return 1
	}
	var bad int64
	for i := range oracle {
		if got[i] != oracle[i] {
			bad++
		}
	}
	return bad
}

// checkComd compares a CoMD result with the mpibase run of the same
// Params: the two runtimes execute the identical app source, so the counts
// match exactly and the energies and checksum to reduction-order rounding
// (the 1e-9 relative tolerance internal/apps/comd's own tests use).
func checkComd(got, ref comd.Result) int64 {
	closeEnough := func(a, b float64) bool {
		if a == b {
			return true
		}
		return math.Abs(a-b)/math.Max(math.Abs(a), math.Abs(b)) < 1e-9
	}
	if got.Atoms != ref.Atoms || got.Atoms == 0 || got.Steps != ref.Steps ||
		!closeEnough(got.Checksum, ref.Checksum) ||
		!closeEnough(got.Kinetic, ref.Kinetic) || !closeEnough(got.Potential, ref.Potential) {
		return 1
	}
	return 0
}

// checkStatsd verifies one flush window: the zero-sum proof held and every
// generated event was applied.
func checkStatsd(res statsd.Result, events int64) int64 {
	if !res.Exact || res.Applied != uint64(events) || res.Dropped != 0 {
		return 1
	}
	return 0
}
