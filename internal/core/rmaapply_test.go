package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/rma"
)

// TestRmaApplyRejectsMalformedFrames hands rmaApply one malformed frame of
// each kind, on a rank whose 4096-byte symmetric heap window has a member
// on another node.  Every case must fail that rank with a descriptive
// panic, never end the process (an unchecked N sized an allocation before)
// nor write a cell the frame does not own (an unchecked origin and target
// aliased another pair's PSCW flag before).
func TestRmaApplyRejectsMalformedFrames(t *testing.T) {
	const heapBytes = 4096
	for _, tc := range []struct {
		name  string
		frame rma.Frame // Origin 0, Target 1 and the heap's window unless set
		want  string
	}{
		{"put past the window", rma.Frame{Kind: rma.FramePut, Off: heapBytes - 8, Payload: make([]byte, 16)},
			"Put of 16 bytes at offset 4088 overflows rank 1's 4096-byte window"},
		{"acc past the window", rma.Frame{Kind: rma.FrameAcc, Off: heapBytes, Payload: make([]byte, 8)},
			"Accumulate of 8 bytes at offset 4096 overflows"},
		{"get-req of 2^40 bytes", rma.Frame{Kind: rma.FrameGetReq, N: 1 << 40},
			"remote Get of 1099511627776 bytes at offset 0 overflows"},
		{"get-req whose end wraps", rma.Frame{Kind: rma.FrameGetReq, Off: 1<<63 - 8, N: 1<<63 - 8},
			"remote Get of 9223372036854775800 bytes at offset 9223372036854775800 overflows"},
		{"get-rep for no get", rma.Frame{Kind: rma.FrameGetRep, Aux: 99},
			"get reply 99 from rank 0 matches no outstanding get"},
		{"notify slot out of range", rma.Frame{Kind: rma.FrameNotify, Aux: rma.NotifySlots},
			"notify slot 8 out of range"},
		{"post from a foreign origin", rma.Frame{Kind: rma.FramePost, Origin: 3, Target: 1, Aux: 1},
			"post frame names origin 3 and target 1 on the flow from comm rank 0 to 1"},
		{"complete toward a foreign target", rma.Frame{Kind: rma.FrameComplete, Target: 3, Aux: 1},
			"complete frame names origin 0 and target 3 on the flow from comm rank 0 to 1"},
		{"atomic-add past the heap", rma.Frame{Kind: rma.FrameAtomicAdd, Off: heapBytes, N: 1},
			"AtomicAdd at offset 4096 overflows the 4096-byte symmetric region"},
		{"atomic-store off a cell", rma.Frame{Kind: rma.FrameAtomicStore, Off: 12, N: 1},
			"AtomicStore at offset 12 is not 8-byte aligned"},
		{"fetch-add past the heap", rma.Frame{Kind: rma.FrameFetchAdd, Off: 1 << 40, Aux: 1},
			"AtomicFetchAdd at offset 1099511627776 overflows"},
		{"cas past the heap", rma.Frame{Kind: rma.FrameCAS, Off: heapBytes, Aux: 1, Payload: make([]byte, 8)},
			"AtomicCAS at offset 4096 overflows"},
		{"deliver with an overflowing ring", rma.Frame{Kind: rma.FrameDeliver, N: rma.PackRing(1<<32-1, 1<<32-8), Aux: 1, Payload: []byte("m")},
			"mailbox ring of 4294967295 4294967288-byte slots at offset 0 does not fit the 4096-byte region"},
		{"deliver past the heap", rma.Frame{Kind: rma.FrameDeliver, Off: heapBytes - 16, N: rma.PackRing(2, 8), Aux: 1},
			"mailbox ring of 2 8-byte slots at offset 4080 does not fit"},
		{"unknown window", rma.Frame{Kind: rma.FrameAtomicAdd, WinSeq: 99},
			"RMA frame for unknown window"},
		{"cas without a compare value", rma.Frame{Kind: rma.FrameCAS, Aux: 1},
			"corrupt RMA frame from rank 0: rma: cas frame carries 0 payload bytes, want 8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var win atomic.Pointer[rma.Window]
			err := Run(nodesConfig(2, 1), func(r *Rank) {
				s := r.World().ShmemCreate(heapBytes, 0)
				if r.ID() == 0 {
					s.Barrier()
					return
				}
				win.Store(s.win.w)
				f := tc.frame
				if f.WinSeq == 0 {
					f.WinSeq = s.win.key.Seq
				}
				if f.Origin == 0 && f.Target == 0 {
					f.Target = 1
				}
				for _, in := range r.rmaIn {
					if in.origin == 0 && in.comm == s.win.key.Comm {
						r.rmaApply(in, f.Encode())
					}
				}
				t.Errorf("rank 1 applied the frame without failing")
				s.Barrier()
			})
			re := asRunError(t, err)
			if len(re.Failures) != 1 || re.Failures[0].Rank != 1 || !strings.Contains(re.Failures[0].Reason, tc.want) {
				t.Fatalf("want rank 1 to fail with %q, got: %v", tc.want, err)
			}
			w := win.Load()
			for i, b := range w.Buffer(1) {
				if b != 0 {
					t.Fatalf("byte %d of rank 1's heap is %#x after the rejected frame", i, b)
				}
			}
			for o := 0; o < 2; o++ {
				for tg := 0; tg < 2; tg++ {
					if w.Completed(o, tg, 1) || w.Posted(o, 1) {
						t.Fatalf("a PSCW flag of pair (%d, %d) was set by the rejected frame", o, tg)
					}
				}
			}
			for slot := 0; slot < rma.NotifySlots; slot++ {
				if w.NotifyCount(1, slot) != 0 {
					t.Fatalf("notify slot %d counted the rejected frame", slot)
				}
			}
		})
	}
}
