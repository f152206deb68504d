// Multinode: a Pure program spanning several virtual Cori nodes — one
// runtime per node in this process, joined by the link layer — with sparse
// placement and helper threads: the configuration of the paper's DT class A
// experiment (40 ranks on 64-thread nodes, idle threads donated to helper
// threads that steal task chunks).
//
//	go run ./examples/multinode
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"repro/pure"
)

func main() {
	const (
		nranks       = 12
		ranksPerNode = 4 // sparse: Cori nodes have 64 hardware threads
		nodes        = 3
	)
	cfg := pure.Config{
		NRanks:       nranks,
		Spec:         pure.CoriNode(nodes),
		RanksPerNode: ranksPerNode,
	}

	run := func(helpers int) (time.Duration, int64) {
		c := cfg
		c.HelpersPerNode = helpers
		var stolen atomic.Int64
		start := time.Now()
		err := pure.Run(c, func(r *pure.Rank) {
			world := r.World()
			// Each node's leader owns an imbalanced task; node-mates block
			// on its release message — their SSW-Loops (and any helper
			// threads) steal chunks meanwhile.
			data := make([]float64, 1<<14)
			task := r.NewTask(64, func(start, end int64, _ any) {
				lo, hi := int64(0), int64(0)
				_ = lo
				_ = hi
				for ch := start; ch < end; ch++ {
					l, h := int(ch)*len(data)/64, (int(ch)+1)*len(data)/64
					for i := l; i < h; i++ {
						v := data[i]
						for k := 0; k < 400; k++ {
							v += float64(k) * 1e-9
						}
						data[i] = v
					}
				}
			})
			nodeLead := r.ID() / ranksPerNode * ranksPerNode
			buf := make([]byte, 8)
			for step := 0; step < 10; step++ {
				if r.ID() == nodeLead {
					// The leader owns the imbalanced task; its node-mates
					// block on the release message below and steal chunks
					// from it while they wait.
					stats := task.Execute(nil)
					stolen.Add(stats.StolenChunks)
					for peer := nodeLead + 1; peer < nodeLead+ranksPerNode; peer++ {
						world.Send(buf, peer, 0)
					}
				} else {
					world.Recv(buf, nodeLead, 0) // SSW-Loop steals here
				}
				_ = world.AllreduceFloat64(float64(step), pure.Max)
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		return time.Since(start), stolen.Load()
	}

	fmt.Printf("Pure over %d in-process nodes (%d ranks, %d per node)\n",
		nodes, nranks, ranksPerNode)
	t0, s0 := run(0)
	fmt.Printf("  without helper threads: %v, %d task chunks stolen\n", t0, s0)
	t1, s1 := run(4)
	fmt.Printf("  with 4 helpers/node:    %v, %d task chunks stolen\n", t1, s1)
	fmt.Println("helper threads occupy the idle hardware threads the sparse placement")
	fmt.Println("leaves behind and steal task chunks (wall-clock gains need a free core")
	fmt.Println("per helper; with fewer cores than ranks the helpers compete with them)")
}
