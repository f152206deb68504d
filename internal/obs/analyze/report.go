package analyze

import (
	"fmt"
	"io"
	"time"
)

// WriteText renders the analysis as a human-readable report.  The layout is
// stable enough to grep in CI ("matched messages:" carries the total), but
// not a machine interface — use the JSON encoding of Analysis for that.
func (a *Analysis) WriteText(w io.Writer) error {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("trace: %d ranks, %d events, span %v\n", a.NRanks, a.Events, ns(a.SpanNs))
	if a.Dropped > 0 {
		p("WARNING: %d events lost to ring wraparound; matching below is incomplete\n", a.Dropped)
	}
	p("matched messages: %d (%.2f%% of sends), unmatched: %d\n",
		a.TotalMatched, 100*a.MatchRate(), a.TotalUnmatched)

	p("\n== message paths ==\n")
	for _, ps := range a.Paths {
		p("%-10s sends=%-6d recvs=%-6d matched=%-6d bytes=%-10d", ps.Path, ps.Sends, ps.Recvs, ps.Matched, ps.Bytes)
		if ps.Latency.N > 0 {
			p(" latency mean=%v p50≤%v p99≤%v max=%v",
				ns(ps.Latency.Mean()), ns(ps.Latency.Quantile(0.50)), ns(ps.Latency.Quantile(0.99)), ns(ps.Latency.Max))
		}
		if ps.CrossSends+ps.CrossRecvs > 0 {
			p(" cross-node sends=%d recvs=%d", ps.CrossSends, ps.CrossRecvs)
		}
		if ps.UnmatchedSends+ps.UnmatchedRecvs > 0 {
			p(" UNMATCHED sends=%d recvs=%d", ps.UnmatchedSends, ps.UnmatchedRecvs)
		}
		p("\n")
		if ps.Path == PathRendezvous && ps.Matched > 0 && ps.QueueWaitNs+ps.TransferNs > 0 {
			p("           rendezvous decomposition: queue-wait %v/msg, transfer %v/msg\n",
				ns(ps.QueueWaitNs/int64(ps.Matched)), ns(ps.TransferNs/int64(ps.Matched)))
		}
	}

	if len(a.Pairs) > 0 {
		p("\n== top pairs by bytes ==\n")
		for i, pr := range a.Pairs {
			if i >= 10 {
				p("  ... %d more pairs\n", len(a.Pairs)-i)
				break
			}
			p("  %3d -> %-3d %-10s msgs=%-6d bytes=%-10d mean=%v\n",
				pr.Src, pr.Dst, pr.Path, pr.Matched, pr.Bytes, ns(pr.Latency.Mean()))
		}
	}

	if len(a.Links) > 0 {
		p("\n== cross-node links ==\n")
		for _, f := range a.Links {
			p("  node %d -> node %-2d frames=%-6d recv-side=%-6d seq-matched=%-6d bytes=%-10d",
				f.Src, f.Dst, f.Sends, f.Recvs, f.Matched, f.Bytes)
			if f.Latency.N > 0 {
				p(" one-way mean=%v p99≤%v", ns(f.Latency.Mean()), ns(f.Latency.Quantile(0.99)))
			}
			if f.Replays > 0 {
				p(" replays=%d", f.Replays)
			}
			p("\n")
		}
	}

	if len(a.Unmatched) > 0 {
		p("\n== unmatched operations (%d total, %d listed) ==\n", a.TotalUnmatched, len(a.Unmatched))
		for _, u := range a.Unmatched {
			p("  %-4s %-10s %3d -> %-3d bytes=%-8d at %v\n", u.Op, u.Path, u.Src, u.Dst, u.Bytes, ns(u.TS))
		}
	}

	if a.Collectives.Calls > 0 {
		c := &a.Collectives
		p("\n== collective skew (%d calls, %d rounds) ==\n", c.Calls, len(c.Rounds))
		p("arrival spread: mean %v, max %v\n", ns(c.MeanSpreadNs), ns(c.MaxSpreadNs))
		for i, rs := range c.Rounds {
			if i >= 20 {
				p("  ... %d more rounds\n", len(c.Rounds)-i)
				break
			}
			label := fmt.Sprintf("round %d", rs.Round)
			if rs.Large {
				label = fmt.Sprintf("call #%d (large path)", rs.Round)
			}
			p("  %-9s node %d %-22s ranks=%-3d spread=%-10v last-arrival=rank %-3d slowest=rank %d (%v)\n",
				rs.Kind, rs.Node, label, rs.Ranks, ns(rs.ArrivalSpreadNs), rs.LastRank, rs.SlowestRank, ns(rs.MaxDurNs))
		}
		if len(c.Stragglers) > 0 {
			p("stragglers (by rounds arrived last):\n")
			for i, s := range c.Stragglers {
				if i >= 5 || (s.LastArrivals == 0 && i > 0) {
					break
				}
				p("  rank %-3d last to arrive %d times, total lateness %v\n", s.Rank, s.LastArrivals, ns(s.LatenessNs))
			}
		}
	}

	if len(a.PBQ) > 0 {
		p("\n== PBQ backpressure (hot pairs) ==\n")
		for i, sp := range a.PBQ {
			if i >= 10 {
				p("  ... %d more pairs\n", len(a.PBQ)-i)
				break
			}
			p("  %3d -> %-3d stalls=%-6d total=%-10v max=%v\n", sp.Src, sp.Dst, sp.Stalls, ns(sp.TotalNs), ns(sp.MaxNs))
		}
	}

	p("\n== per-rank breakdown ==\n")
	for _, rb := range a.Ranks {
		p("  rank %-3d wall=%-10v blocked=%-10v tasks=%v (%d execs, %d chunks)",
			rb.Rank, ns(rb.WallNs), ns(rb.BlockedNs), ns(rb.TaskNs), rb.TasksExecuted, rb.TaskChunks)
		if rb.ChunksStolen > 0 {
			p(" stolen=%d chunks (%v)", rb.ChunksStolen, ns(rb.StealNs))
		}
		p(" other=%v sends=%d recvs=%d\n", ns(rb.OtherNs), rb.Sends, rb.Recvs)
	}

	if a.Critical.LengthNs > 0 {
		cp := &a.Critical
		p("\n== critical path (estimate) ==\n")
		p("length %v, rank %d -> rank %d, %d message hops (%v in flight)\n",
			ns(cp.LengthNs), cp.StartRank, cp.EndRank, cp.Hops, ns(cp.InFlightNs))
		for i, rs := range cp.RankNs {
			if i >= 8 {
				break
			}
			pct := float64(0)
			if cp.LengthNs > 0 {
				pct = 100 * float64(rs.Ns) / float64(cp.LengthNs)
			}
			p("  rank %-3d %-10v (%.1f%%)\n", rs.Rank, ns(rs.Ns), pct)
		}
	}
	return nil
}

func ns(v int64) time.Duration { return time.Duration(v) }
