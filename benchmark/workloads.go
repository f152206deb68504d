package main

import "fmt"

// The workload table.  Names are fixed: later issues refer to them
// verbatim.  Every workload is a closed loop — the clients are the SPMD
// ranks themselves, each waiting for its reply — with 2 ranks, the default
// GOMAXPROCS, and all load generated inside the one benchmark process.
//
// Each row's "why" says which layers do the work and which are bypassed, so
// that for every optimisation one workload exercises its mechanism and one
// does not (the prediction there is no change).
var workloads = []struct {
	name string
	why  string
	new  func(seed uint64, scale float64) (workload, error)
}{
	{
		"p2p-intra",
		"one node: channel ping-pong at 8 B and 64 KiB, then a credit-windowed 64 B stream; queue+core+ssw do all the work, collectives/sched/transport none",
		func(seed uint64, scale float64) (workload, error) {
			return newP2P(false, sizes.p2pIntra.scaled(scale), seed), nil
		},
	},
	{
		"coll-intra",
		"one node: Barrier, 8 B Allreduce (SPTD), 64 KiB Allreduce (partitioned reducer); internal/collective does the work, point-to-point is bypassed",
		func(seed uint64, scale float64) (workload, error) {
			return newColl(sizes.collIntra.scaled(scale), seed), nil
		},
	},
	{
		"xnode-tcp",
		"two pure.Run instances joined over loopback TCP, 1 rank each: same ping-pong and stream plus 8 B Allreduce; transport+remote core path do all the work, shared memory none",
		func(seed uint64, scale float64) (workload, error) {
			return newP2P(true, sizes.xnodeTCP.scaled(scale), seed), nil
		},
	},
	{
		"comd-balanced",
		"CoMD at its strong-scaling limit, no tasks: small-plane halo Sendrecv every step plus an Allreduce every 10; messaging latency is a visible share, sched/steal is bypassed",
		func(seed uint64, scale float64) (workload, error) {
			return newComd(false, sizes.comdBalanced.scaled(scale), seed)
		},
	},
	{
		"comd-steal",
		"CoMD with a void in rank 1's box and the force loop as a Pure Task: rank 1 blocks in the halo exchange and steals; sched+ssw steal path dominate, messaging is negligible",
		func(seed uint64, scale float64) (workload, error) {
			return newComd(true, sizes.comdSteal.scaled(scale), seed)
		},
	},
	{
		"statsd-stream",
		"statsd pipeline, 1 ingester + 1 aggregator, zipf keys, blocking: batched one-way frames and a partitioned-reducer rollup per flush window, plus parse/intern/aggregate nothing else touches",
		func(seed uint64, scale float64) (workload, error) {
			return newStatsd(sizes.statsdStream.scaled(scale), seed), nil
		},
	},
	{
		"pgas-hist",
		"4096-bin histogram striped over 2 ranks by pure.Shmem AtomicAdd, half the updates remote: the only coverage of shmem+rma; one-sided updates bypass channels entirely",
		func(seed uint64, scale float64) (workload, error) {
			return newPgas(sizes.pgasHist.scaled(scale), seed), nil
		},
	},
}

// sizes freezes the operations per repetition of every workload, sized on
// the 2-core reference box so one repetition takes about a third of a second:
// per-launch variation (memory layout, thread placement) is the largest
// noise term here, so a run's medians are taken over many short
// repetitions rather than a few long ones.  They
// are not flags: a benchmark whose input a flag can change has no baseline.
var sizes = struct {
	p2pIntra, xnodeTCP      p2pSizes
	collIntra               collSizes
	comdBalanced, comdSteal comdSizes
	statsdStream            statsdSizes
	pgasHist                pgasSizes
}{
	p2pIntra:     p2pSizes{rtt8: 130_000, rtt64K: 5_000, stream: 512_000},
	xnodeTCP:     p2pSizes{rtt8: 3_500, rtt64K: 350, stream: 20_480, allreduce: 1_300},
	collIntra:    collSizes{barrier: 100_000, allreduce8: 100_000, allreduce64K: 4_000},
	comdBalanced: comdSizes{steps: 2_000},
	comdSteal:    comdSizes{steps: 700},
	statsdStream: statsdSizes{windows: 70, eventsPerWindow: 25_000},
	pgasHist:     pgasSizes{updatesPerRank: 10_000_000},
}

// scaleInt scales a size, keeping it a positive multiple of unit unless the
// scale is 0 (the set-up-only variant, which runs no operations).
func scaleInt(n int, scale float64, unit int) int {
	if scale == 0 {
		return 0
	}
	m := int(float64(n)*scale) / unit * unit
	return max(m, unit)
}

func (s p2pSizes) scaled(f float64) p2pSizes {
	out := p2pSizes{
		rtt8:   scaleInt(s.rtt8, f, 1),
		rtt64K: scaleInt(s.rtt64K, f, 1),
		stream: scaleInt(s.stream, f, ackEvery),
	}
	if s.allreduce > 0 {
		out.allreduce = scaleInt(s.allreduce, f, 1)
	}
	return out
}

func (s collSizes) scaled(f float64) collSizes {
	return collSizes{
		barrier:      scaleInt(s.barrier, f, 1),
		allreduce8:   scaleInt(s.allreduce8, f, 1),
		allreduce64K: scaleInt(s.allreduce64K, f, 1),
	}
}

func findWorkload(name string) (int, error) {
	for i, w := range workloads {
		if w.name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown workload %q", name)
}
