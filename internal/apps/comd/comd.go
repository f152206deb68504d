// Package comd is a Go port of the CoMD molecular-dynamics proxy app
// (ECP proxy suite) used in the paper's evaluation (§5.2), written against
// the backend-neutral comm interface so the identical source runs over both
// the Pure runtime and the MPI baseline.
//
// The physics is a cell-list classical MD step in the CoMD mold: atoms on a
// cubic lattice interact through a truncated Lennard-Jones pair potential
// (CoMD's EAM variant has the same communication structure) plus a harmonic
// tether to their lattice site that keeps the crystal bound, advanced with
// velocity Verlet.  Each rank owns a box of link cells; every step the rank
// exchanges boundary-cell atom positions with its six face neighbours in
// the standard three-phase (x, then y, then z) halo exchange, which also
// populates edge and corner ghosts, then computes forces over its own
// cells.  Periodically the ranks all-reduce the system energies, CoMD's
// collective traffic.
//
// Two imbalance variants reproduce the paper's §5.2.1/§5.2.2 experiments:
//
//   - Voids: spheres of atoms elided at initialization (following Pearce et
//     al., the paper's citation [42]) creating *static* load imbalance;
//   - Hotspot: a sphere moving through the domain inside which per-atom
//     force work is multiplied, creating *dynamic* imbalance.
//
// When Params.UseTask is set the force loop runs as a Pure Task chunked
// over cells, so ranks blocked in the halo exchange steal force work — the
// paper's eamForce task.  Force accumulation is written one-owner-per-cell
// (no Newton's-third-law halving), so chunks never write shared locations.
//
// Atoms never migrate between cells: the tether holds each one near its
// lattice site, so no cell ever holds more than AtomsPerCell atoms.  The
// time loop relies on that invariant to allocate nothing — cell slices and
// the per-axis halo plans' wire buffers (the paper's per-pair channel reuse,
// §4.1.3) are sized once in newSim, and a packed plane that would overflow
// its buffer panics rather than grow it.
package comd

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/comm"
)

// Vec3 is a 3-vector.
type Vec3 struct{ X, Y, Z float64 }

func (a Vec3) add(b Vec3) Vec3      { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }
func (a Vec3) sub(b Vec3) Vec3      { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }
func (a Vec3) scale(s float64) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }
func (a Vec3) norm2() float64       { return a.X*a.X + a.Y*a.Y + a.Z*a.Z }

// Sphere defines a spherical region in global coordinates.
type Sphere struct {
	Center Vec3
	Radius float64
}

func (s Sphere) contains(p Vec3) bool { return p.sub(s.Center).norm2() <= s.Radius*s.Radius }

// Hotspot is a moving region of inflated force cost (dynamic imbalance).
type Hotspot struct {
	Sphere
	Velocity Vec3 // displacement per step (wraps periodically)
	// Factor multiplies the synthetic per-pair work inside the sphere.
	Factor int
}

// Params configures a CoMD run.
type Params struct {
	// Grid is the rank decomposition (px, py, pz); px*py*pz must equal the
	// communicator size.
	Grid [3]int
	// CellsPerRank is the link-cell box each rank owns (per dimension).
	CellsPerRank [3]int
	// AtomsPerCell is the initial atoms per cell (CoMD default: 4 for FCC).
	AtomsPerCell int
	// Steps is the number of timesteps (paper: 150).
	Steps int
	// Dt is the integration timestep.
	Dt float64
	// ExtraWork adds synthetic flops per pair interaction, scaling the
	// compute/communication ratio without growing the problem.
	ExtraWork int
	// PrintRate is the energy all-reduce period in steps (0 = every 10).
	PrintRate int
	// UseTask runs the force loop as a Pure Task (ignored by backends
	// without task support, where it runs serially).
	UseTask bool
	// TaskChunks is the force task's chunk count (0 = one per 4 cells).
	TaskChunks int
	// Voids elide atoms at initialization (static imbalance).
	Voids []Sphere
	// Hotspot moves a region of inflated work through the domain (dynamic
	// imbalance).
	Hotspot *Hotspot
}

// Result carries the run's invariants for cross-backend verification.
type Result struct {
	Atoms     int64   // global atom count (conserved)
	Kinetic   float64 // final kinetic energy (global)
	Potential float64 // final potential energy (global)
	Checksum  float64 // global sum of |position| components
	Steps     int
}

const (
	cellSize  = 1.0 // cutoff == cell size (link-cell condition)
	sigma     = 0.4
	epsilonLJ = 1e-4
	springK   = 0.05
	mass      = 1.0
)

// sim is one rank's simulation state.
type sim struct {
	b comm.Backend
	p Params

	coords     [3]int // this rank's grid coordinates
	origin     Vec3   // global coordinate of the rank box's low corner
	nx, ny, nz int

	// cells is the extended (ghosted) cell array, dims (nx+2)(ny+2)(nz+2);
	// interior cells are [1..nx] etc.
	cells []cellData

	interior []int // indices of interior cells (task chunk domain)

	potential float64
	// potPerCell accumulates per-cell potential so the task-parallel force
	// loop writes disjoint slots (summed after the task completes).
	potPerCell []float64

	task comm.Task

	halo [3]haloPlan // one per axis, x then y then z
	hot  Hotspot     // this step's hotspot (zero factor without one)
	// energyIn/energyOut carry the periodic two-float64 energy all-reduce.
	energyIn, energyOut []byte
}

// haloPlan is one axis's face exchange, built once and reused every step.
type haloPlan struct {
	loRank, hiRank int
	tag            int // base tag: sizes on tag and tag+1, payloads on tag+2 and tag+3
	// selfWrap: one rank along this axis, so its own faces are its ghosts
	// and no message is sent.
	selfWrap bool
	// sendLo/sendHi are the planes at 1 and hiAt; ghostLo/ghostHi the ghost
	// planes at 0 and hiAt+1 that the neighbours' faces fill.
	sendLo, sendHi, ghostLo, ghostHi []int
	// loShift/hiShift move ghosts received across the global periodic
	// boundary into this rank's frame.
	loShift, hiShift Vec3
	// Wire buffers, each of capacity len(plane)·(8+24·AtomsPerCell).
	sendLoBuf, sendHiBuf, recvLoBuf, recvHiBuf []byte
	// The size cells: out to lo/hi, in from lo/hi.
	sizeToLo, sizeToHi, sizeFromLo, sizeFromHi [8]byte
}

type cellData struct {
	pos  []Vec3
	vel  []Vec3
	frc  []Vec3
	site []Vec3
}

// Run executes CoMD over the backend and returns the global invariants.
func Run(b comm.Backend, p Params) (Result, error) {
	if p.Grid[0]*p.Grid[1]*p.Grid[2] != b.Size() {
		return Result{}, fmt.Errorf("comd: grid %v does not match %d ranks", p.Grid, b.Size())
	}
	if p.AtomsPerCell <= 0 || p.Steps < 0 {
		return Result{}, fmt.Errorf("comd: bad params %+v", p)
	}
	if p.CellsPerRank[0] < 1 || p.CellsPerRank[1] < 1 || p.CellsPerRank[2] < 1 {
		return Result{}, fmt.Errorf("comd: cells per rank must be >= 1, got %v", p.CellsPerRank)
	}
	if p.Dt == 0 {
		p.Dt = 0.001
	}
	if p.PrintRate <= 0 {
		p.PrintRate = 10
	}
	s := newSim(b, p)
	return s.run()
}

func newSim(b comm.Backend, p Params) *sim {
	s := &sim{b: b, p: p, nx: p.CellsPerRank[0], ny: p.CellsPerRank[1], nz: p.CellsPerRank[2]}
	r := b.Rank()
	s.coords = [3]int{
		r % p.Grid[0],
		(r / p.Grid[0]) % p.Grid[1],
		r / (p.Grid[0] * p.Grid[1]),
	}
	s.origin = Vec3{
		float64(s.coords[0]*s.nx) * cellSize,
		float64(s.coords[1]*s.ny) * cellSize,
		float64(s.coords[2]*s.nz) * cellSize,
	}
	s.cells = make([]cellData, (s.nx+2)*(s.ny+2)*(s.nz+2))
	s.potPerCell = make([]float64, len(s.cells))
	nInterior := s.nx * s.ny * s.nz
	s.interior = make([]int, 0, nInterior)
	// Every atom slice has capacity AtomsPerCell, carved from one slab:
	// positions for every cell (ghosts too), and velocities, forces and
	// sites for the interior ones.
	apc := p.AtomsPerCell
	slab := make([]Vec3, (len(s.cells)+3*nInterior)*apc)
	carve := func() []Vec3 {
		v := slab[:0:apc]
		slab = slab[apc:]
		return v
	}
	for ci := range s.cells {
		s.cells[ci].pos = carve()
	}
	for iz := 1; iz <= s.nz; iz++ {
		for iy := 1; iy <= s.ny; iy++ {
			for ix := 1; ix <= s.nx; ix++ {
				ci := s.cellIndex(ix, iy, iz)
				c := &s.cells[ci]
				c.vel, c.frc, c.site = carve(), carve(), carve()
				s.interior = append(s.interior, ci)
				s.initCell(ci, ix, iy, iz)
			}
		}
	}
	for axis := range s.halo {
		s.halo[axis] = s.newHaloPlan(axis)
	}
	s.energyIn, s.energyOut = make([]byte, 16), make([]byte, 16)
	if p.UseTask {
		chunks := p.TaskChunks
		if chunks <= 0 {
			chunks = (len(s.interior) + 3) / 4
		}
		s.task = b.NewTask(chunks, func(start, end int64, extra any) {
			hs := extra.(*Hotspot) // may point to a zero-factor hotspot
			n := int64(len(s.interior))
			lo := start * n / int64(chunks)
			hi := end * n / int64(chunks)
			for k := lo; k < hi; k++ {
				s.forceCell(s.interior[k], hs)
			}
		})
	}
	return s
}

func (s *sim) cellIndex(ix, iy, iz int) int {
	return (iz*(s.ny+2)+iy)*(s.nx+2) + ix
}

// initCell lays AtomsPerCell atoms on a deterministic sub-lattice of the
// cell, skipping any that fall inside a void sphere.
func (s *sim) initCell(ci, ix, iy, iz int) {
	c := &s.cells[ci]
	base := Vec3{
		s.origin.X + float64(ix-1)*cellSize,
		s.origin.Y + float64(iy-1)*cellSize,
		s.origin.Z + float64(iz-1)*cellSize,
	}
	for a := 0; a < s.p.AtomsPerCell; a++ {
		// Deterministic jittered sub-lattice positions.
		f := float64(a+1) / float64(s.p.AtomsPerCell+1)
		pos := base.add(Vec3{f * cellSize, (1 - f) * cellSize * 0.9, (0.3 + 0.5*f) * cellSize})
		skip := false
		for _, v := range s.p.Voids {
			if v.contains(pos) {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		c.pos = append(c.pos, pos)
		c.site = append(c.site, pos)
		// Deterministic small initial velocity (temperature analogue).
		c.vel = append(c.vel, Vec3{
			0.01 * math.Sin(pos.X*37+pos.Y*11),
			0.01 * math.Cos(pos.Y*23+pos.Z*7),
			0.01 * math.Sin(pos.Z*31+pos.X*13),
		})
		c.frc = append(c.frc, Vec3{})
	}
}

// run advances the simulation and returns the invariants.
func (s *sim) run() (Result, error) {
	s.haloExchange()
	s.computeForces(&s.hot) // still zero: the hotspot starts moving at step 0
	for step := 0; step < s.p.Steps; step++ {
		hs := s.hotspotAt(step)
		s.kick(0.5 * s.p.Dt)
		s.drift(s.p.Dt)
		s.haloExchange()
		s.computeForces(hs)
		s.kick(0.5 * s.p.Dt)
		if (step+1)%s.p.PrintRate == 0 {
			// CoMD prints the global energies: two-element all-reduce.
			binary.LittleEndian.PutUint64(s.energyIn, math.Float64bits(s.kinetic()))
			binary.LittleEndian.PutUint64(s.energyIn[8:], math.Float64bits(s.potential))
			s.b.Allreduce(s.energyIn, s.energyOut, comm.Sum, comm.Float64)
		}
	}
	ke := comm.AllreduceFloat64(s.b, s.kinetic(), comm.Sum)
	pe := comm.AllreduceFloat64(s.b, s.potential, comm.Sum)
	atoms := comm.AllreduceInt64(s.b, s.localAtoms(), comm.Sum)
	sum := 0.0
	for _, ci := range s.interior {
		for _, p := range s.cells[ci].pos {
			sum += math.Abs(p.X) + math.Abs(p.Y) + math.Abs(p.Z)
		}
	}
	checksum := comm.AllreduceFloat64(s.b, sum, comm.Sum)
	return Result{Atoms: atoms, Kinetic: ke, Potential: pe, Checksum: checksum, Steps: s.p.Steps}, nil
}

// hotspotAt places the sim's hotspot where it is at step and returns it
// (the zero hotspot when the run has none).
func (s *sim) hotspotAt(step int) *Hotspot {
	h := &s.hot
	if s.p.Hotspot == nil {
		return h
	}
	*h = *s.p.Hotspot
	// Move the hotspot with periodic wraparound over the global domain.
	gx := float64(s.p.Grid[0]*s.nx) * cellSize
	gy := float64(s.p.Grid[1]*s.ny) * cellSize
	gz := float64(s.p.Grid[2]*s.nz) * cellSize
	h.Center = Vec3{
		math.Mod(h.Center.X+h.Velocity.X*float64(step)+10*gx, gx),
		math.Mod(h.Center.Y+h.Velocity.Y*float64(step)+10*gy, gy),
		math.Mod(h.Center.Z+h.Velocity.Z*float64(step)+10*gz, gz),
	}
	return h
}

func (s *sim) localAtoms() int64 {
	n := int64(0)
	for _, ci := range s.interior {
		n += int64(len(s.cells[ci].pos))
	}
	return n
}

func (s *sim) kinetic() float64 {
	ke := 0.0
	for _, ci := range s.interior {
		for _, v := range s.cells[ci].vel {
			ke += 0.5 * mass * v.norm2()
		}
	}
	return ke
}

func (s *sim) kick(dt float64) {
	for _, ci := range s.interior {
		c := &s.cells[ci]
		for i := range c.vel {
			c.vel[i] = c.vel[i].add(c.frc[i].scale(dt / mass))
		}
	}
}

func (s *sim) drift(dt float64) {
	for _, ci := range s.interior {
		c := &s.cells[ci]
		for i := range c.pos {
			c.pos[i] = c.pos[i].add(c.vel[i].scale(dt))
		}
	}
}

// computeForces runs the force kernel over all interior cells, as a Pure
// Task when configured (the paper's eamForce extraction) or a plain loop.
func (s *sim) computeForces(hs *Hotspot) {
	if s.task != nil {
		s.task.Execute(hs)
	} else {
		for _, ci := range s.interior {
			s.forceCell(ci, hs)
		}
	}
	// Fold the per-cell potentials (task chunks wrote disjoint slots).
	pot := 0.0
	for _, ci := range s.interior {
		pot += s.potPerCell[ci]
	}
	s.potential = pot
}

// forceCell computes forces on every atom of one cell from atoms in the 27
// surrounding cells (including ghosts).  Only this cell's atoms are
// written, so concurrent chunks are race-free.
func (s *sim) forceCell(ci int, hs *Hotspot) {
	nxy := (s.nx + 2) * (s.ny + 2)
	ix := ci % (s.nx + 2)
	iy := (ci / (s.nx + 2)) % (s.ny + 2)
	iz := ci / nxy
	c := &s.cells[ci]
	pot := 0.0
	cut2 := cellSize * cellSize
	for i := range c.pos {
		pi := c.pos[i]
		f := Vec3{}
		work := 1
		if hs.Factor > 1 && hs.contains(pi) {
			work = hs.Factor
		}
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nb := &s.cells[s.cellIndex(ix+dx, iy+dy, iz+dz)]
					for j := range nb.pos {
						d := pi.sub(nb.pos[j])
						r2 := d.norm2()
						if r2 <= 1e-12 || r2 > cut2 {
							continue
						}
						// Truncated LJ 6-12 (force magnitude / r).
						s2 := sigma * sigma / r2
						s6 := s2 * s2 * s2
						fmag := 24 * epsilonLJ * s6 * (2*s6 - 1) / r2
						// Synthetic extra work (paper's knob for making the
						// force phase dominate; burned deterministically).
						for w := 0; w < s.p.ExtraWork*work; w++ {
							fmag += 1e-30 * float64(w%3)
						}
						f = f.add(d.scale(fmag))
						pot += 0.5 * 4 * epsilonLJ * s6 * (s6 - 1)
					}
				}
			}
		}
		// Harmonic tether to the lattice site keeps the crystal bound (no
		// atom migration between cells; see package comment).
		dsite := c.site[i].sub(pi)
		f = f.add(dsite.scale(springK))
		pot += 0.5 * springK * dsite.norm2()
		c.frc[i] = f
	}
	s.potPerCell[ci] = pot
}

// ---- Halo exchange ----

// neighborRank returns the rank at grid offset (dx,dy,dz) with periodic
// wraparound.
func (s *sim) neighborRank(dx, dy, dz int) int {
	px, py, pz := s.p.Grid[0], s.p.Grid[1], s.p.Grid[2]
	x := (s.coords[0] + dx + px) % px
	y := (s.coords[1] + dy + py) % py
	z := (s.coords[2] + dz + pz) % pz
	return (z*py+y)*px + x
}

// haloExchange refreshes ghost cells with neighbour boundary atoms using the
// three-phase face exchange (x, then y, then z), which transitively fills
// edge and corner ghosts.
func (s *sim) haloExchange() {
	for axis := range s.halo {
		s.exchangeAxis(&s.halo[axis])
	}
}

// plane returns the cell indices of the plane at the given coordinate along
// axis, spanning the full extended range of the other two axes for phases
// that forward ghosts.
func (s *sim) plane(axis, at int) []int {
	var out []int
	switch axis {
	case 0:
		for iz := 0; iz <= s.nz+1; iz++ {
			for iy := 0; iy <= s.ny+1; iy++ {
				out = append(out, s.cellIndex(at, iy, iz))
			}
		}
	case 1:
		for iz := 0; iz <= s.nz+1; iz++ {
			for ix := 0; ix <= s.nx+1; ix++ {
				out = append(out, s.cellIndex(ix, at, iz))
			}
		}
	default:
		for iy := 0; iy <= s.ny+1; iy++ {
			for ix := 0; ix <= s.nx+1; ix++ {
				out = append(out, s.cellIndex(ix, iy, at))
			}
		}
	}
	return out
}

// newHaloPlan builds the exchange along one axis with the -/+ neighbours.
// Tags: 100+axis*4 .. so each direction has a distinct stream.
func (s *sim) newHaloPlan(axis int) haloPlan {
	hiAt := [3]int{s.nx, s.ny, s.nz}[axis]
	var loDir, hiDir [3]int
	loDir[axis] = -1
	hiDir[axis] = 1
	h := haloPlan{
		loRank:  s.neighborRank(loDir[0], loDir[1], loDir[2]),
		hiRank:  s.neighborRank(hiDir[0], hiDir[1], hiDir[2]),
		tag:     100 + axis*4,
		sendLo:  s.plane(axis, 1),
		sendHi:  s.plane(axis, hiAt),
		ghostLo: s.plane(axis, 0),
		ghostHi: s.plane(axis, hiAt+1),
	}
	h.selfWrap = h.loRank == s.b.Rank() && h.hiRank == s.b.Rank()

	// Ghosts received across the global periodic boundary must be shifted by
	// the domain extent so distances are computed in our local frame.
	extent := float64(s.p.Grid[axis]*hiAt) * cellSize
	if s.coords[axis] == 0 {
		h.loShift = axisVec(axis, -extent) // low neighbour wraps from the high end
	}
	if s.coords[axis] == s.p.Grid[axis]-1 {
		h.hiShift = axisVec(axis, +extent)
	}

	// Every rank's planes have the same cell count, and no cell holds more
	// than AtomsPerCell atoms, so one capacity fits every face either way.
	capacity := len(h.sendLo) * (8 + 24*s.p.AtomsPerCell)
	h.sendLoBuf, h.sendHiBuf = make([]byte, capacity), make([]byte, capacity)
	if !h.selfWrap {
		h.recvLoBuf, h.recvHiBuf = make([]byte, capacity), make([]byte, capacity)
	}
	return h
}

// exchangeAxis swaps both faces along one axis with the -/+ neighbours.
func (s *sim) exchangeAxis(h *haloPlan) {
	sendLo := s.packPlane(h.sendLo, h.sendLoBuf)
	sendHi := s.packPlane(h.sendHi, h.sendHiBuf)
	// Single rank along this axis: periodic self-wrap, no messages.
	recvLo, recvHi := sendHi, sendLo
	if !h.selfWrap {
		// Exchange sizes first (the payload sizes vary with atom counts),
		// then payloads.  Each direction is one Sendrecv shift: everybody
		// sends toward the low neighbour while receiving from the high one,
		// then the reverse — uniform cyclic shifts cannot deadlock.
		// Low-bound sends pair with high-bound receives on the same tag, and
		// vice versa.
		binary.LittleEndian.PutUint64(h.sizeToLo[:], uint64(len(sendLo)))
		binary.LittleEndian.PutUint64(h.sizeToHi[:], uint64(len(sendHi)))
		s.b.Sendrecv(h.sizeToLo[:], h.loRank, h.tag+1, h.sizeFromHi[:], h.hiRank, h.tag+1)
		s.b.Sendrecv(h.sizeToHi[:], h.hiRank, h.tag, h.sizeFromLo[:], h.loRank, h.tag)
		recvLo = sized(h.recvLoBuf, int(binary.LittleEndian.Uint64(h.sizeFromLo[:])))
		recvHi = sized(h.recvHiBuf, int(binary.LittleEndian.Uint64(h.sizeFromHi[:])))
		s.b.Sendrecv(sendLo, h.loRank, h.tag+3, recvHi, h.hiRank, h.tag+3) // our low face is their high ghost
		s.b.Sendrecv(sendHi, h.hiRank, h.tag+2, recvLo, h.loRank, h.tag+2)
	}
	s.unpackPlane(h.ghostLo, recvLo, h.loShift)
	s.unpackPlane(h.ghostHi, recvHi, h.hiShift)
}

// axisVec returns a vector with v in the given axis component.
func axisVec(axis int, v float64) Vec3 {
	switch axis {
	case 0:
		return Vec3{X: v}
	case 1:
		return Vec3{Y: v}
	default:
		return Vec3{Z: v}
	}
}

// sized returns buf cut to n bytes.  A plane never outgrows its buffer
// while atoms stay in their cells; one that does is a broken invariant, not
// a reason to allocate.
func sized(buf []byte, n int) []byte {
	if n < 0 || n > cap(buf) {
		panic(fmt.Sprintf("comd: a %d-byte halo plane exceeds its %d-byte buffer (a cell holds more than AtomsPerCell atoms)", n, cap(buf)))
	}
	return buf[:n]
}

// packPlane serializes the plane's cells into buf — per cell a count, then
// positions — and returns the packed prefix.
func (s *sim) packPlane(cells []int, buf []byte) []byte {
	n := 0
	for _, ci := range cells {
		n += 8 + 24*len(s.cells[ci].pos)
	}
	buf = sized(buf, n)
	off := 0
	for _, ci := range cells {
		c := &s.cells[ci]
		binary.LittleEndian.PutUint64(buf[off:], uint64(len(c.pos)))
		off += 8
		for _, p := range c.pos {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(p.X))
			binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(p.Y))
			binary.LittleEndian.PutUint64(buf[off+16:], math.Float64bits(p.Z))
			off += 24
		}
	}
	return buf
}

// unpackPlane fills ghost cells from a packed plane, applying the periodic
// shift to every atom.
func (s *sim) unpackPlane(cells []int, buf []byte, shift Vec3) {
	off := 0
	for _, ci := range cells {
		c := &s.cells[ci]
		cnt := int(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
		c.pos = c.pos[:0]
		for a := 0; a < cnt; a++ {
			c.pos = append(c.pos, Vec3{
				math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])) + shift.X,
				math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:])) + shift.Y,
				math.Float64frombits(binary.LittleEndian.Uint64(buf[off+16:])) + shift.Z,
			})
			off += 24
		}
	}
}
