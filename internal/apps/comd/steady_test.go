package comd

import (
	"runtime"
	"testing"

	"repro/comm"
	"repro/mpibase"
	"repro/pure"
)

// benchmarkParams are the benchmark's two CoMD parameter sets (comd-balanced
// and comd-steal) at a fixed timestep, the second with a moving hotspot.
func benchmarkParams() (balanced, steal Params) {
	balanced = Params{
		Grid: [3]int{2, 1, 1}, CellsPerRank: [3]int{4, 4, 4}, AtomsPerCell: 4,
		Steps: 200, PrintRate: 10, Dt: 0.001,
	}
	steal = balanced
	steal.CellsPerRank = [3]int{6, 6, 6}
	steal.ExtraWork = 8
	steal.UseTask = true
	steal.Voids = []Sphere{{Center: Vec3{9, 3, 3}, Radius: 3}}
	steal.Hotspot = &Hotspot{
		Sphere:   Sphere{Center: Vec3{2, 3, 3}, Radius: 2},
		Velocity: Vec3{0.05, 0.02, 0},
		Factor:   2,
	}
	return balanced, steal
}

// runOn runs p on two ranks of the named backend and returns rank 0's Result.
func runOn(t *testing.T, backend string, p Params) Result {
	t.Helper()
	var res Result
	body := func(b comm.Backend) {
		r, err := Run(b, p)
		if err != nil {
			t.Error(err)
		}
		if b.Rank() == 0 {
			res = r
		}
	}
	var err error
	if backend == "pure" {
		err = comm.RunPure(pure.Config{NRanks: 2}, body)
	} else {
		err = comm.RunMPI(mpibase.Config{NRanks: 2}, body)
	}
	if err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
	return res
}

// TestComdGoldenResult pins the exact Result of both benchmark parameter
// sets: reusing halo buffers must not move a bit of the physics.
func TestComdGoldenResult(t *testing.T) {
	balanced, steal := benchmarkParams()
	cases := []struct {
		name string
		p    Params
		want Result
	}{
		{"balanced", balanced, Result{Atoms: 512, Kinetic: 2.5088427462817746, Potential: 4.610706604917109, Checksum: 4096.243674876333, Steps: 200}},
		{"steal", steal, Result{Atoms: 1262, Kinetic: 6.1513652325941255, Potential: 10.855471856105156, Checksum: 13727.352989151554, Steps: 200}},
	}
	for _, c := range cases {
		for _, backend := range []string{"pure", "mpi"} {
			if got := runOn(t, backend, c.p); got != c.want {
				t.Errorf("%s over %s:\n got  %+v\n want %+v", c.name, backend, got, c.want)
			}
		}
	}
}

// TestComdStepAllocs gates the steady state: the marginal heap allocations
// of a time step, per rank, from the difference of a 600-step and a 100-step
// run (bootstrap and per-run setup cancel).  An untasked step allocates
// nothing; a tasked one pays only Task.Execute's execution record, and the
// straggler wait's closure when a thief still holds a chunk.
func TestComdStepAllocs(t *testing.T) {
	balanced, steal := benchmarkParams()
	steal.CellsPerRank = balanced.CellsPerRank // keep the tasked run short
	steal.ExtraWork = 0
	const ranks = 2
	mallocs := func(p Params, steps int) uint64 {
		p.Steps = steps
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		runOn(t, "pure", p)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, c := range []struct {
		name string
		p    Params
		max  float64
	}{{"untasked", balanced, 0.02}, {"tasked", steal, 2.02}} {
		short, long := mallocs(c.p, 100), mallocs(c.p, 600)
		perStep := (float64(long) - float64(short)) / (500 * ranks)
		t.Logf("%s: %d mallocs at 100 steps, %d at 600: %.3f per rank step", c.name, short, long, perStep)
		if perStep > c.max {
			t.Errorf("%s: %.3f allocations per rank step, want <= %.2f", c.name, perStep, c.max)
		}
	}
}
