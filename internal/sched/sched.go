// Package sched translates each distributed GeMM algorithm into an SPMD
// program: a dependency graph of compute and communication operations that
// every chip of the mesh executes. The programs encode exactly the
// structure the paper's Fig. 4 timelines show — which operations exist,
// what depends on what, and which direction each communication uses — and
// the cluster simulator (package netsim) executes them against the
// hardware model to obtain makespans and communication breakdowns.
package sched

import (
	"fmt"
	"strconv"

	"meshslice/internal/topology"
)

// OpKind classifies the operations a program is made of.
type OpKind int

const (
	// Compute is a local (partial) GeMM on the chip's compute engine.
	Compute OpKind = iota
	// Slice is a local HBM-to-HBM copy assembling a sliced sub-shard
	// (MeshSlice's slice_col/slice_row, paper Algorithm 2).
	Slice
	// AllGather is a ring all-gather: Steps neighbour exchanges of Bytes
	// each on the op's direction links.
	AllGather
	// ReduceScatter is a ring reduce-scatter with the same step structure
	// as AllGather.
	ReduceScatter
	// Broadcast is SUMMA's fine-grain pipelined one-to-all ring transfer
	// (paper Fig. 3 left): Bytes split into Packets streamed over
	// Steps pipeline stages, with bubbles.
	Broadcast
	// Reduce is the all-to-one counterpart of Broadcast with the same
	// pipeline structure.
	Reduce
	// Shift is a single SendRecv neighbour exchange (Cannon's systolic
	// step, Wang's decomposed collective step).
	Shift
)

func (k OpKind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Slice:
		return "slice"
	case AllGather:
		return "allgather"
	case ReduceScatter:
		return "reducescatter"
	case Broadcast:
		return "broadcast"
	case Reduce:
		return "reduce"
	case Shift:
		return "shift"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// IsComm reports whether the kind occupies interconnect links.
func (k OpKind) IsComm() bool {
	switch k {
	case AllGather, ReduceScatter, Broadcast, Reduce, Shift:
		return true
	}
	return false
}

// Op is one operation of an SPMD program. Exactly one of the comm fields
// or compute fields is meaningful depending on Kind.
type Op struct {
	Kind OpKind
	// Name labels the op in traces ("AG_col A_s", "partial GeMM s=2", …).
	Name string

	// Dir is the mesh direction whose links a comm op occupies.
	Dir topology.Direction
	// Bytes is the per-step payload for AllGather/ReduceScatter/Shift
	// (each ring step moves this many bytes per link), or the total
	// payload for Broadcast/Reduce (split into Packets on the wire).
	Bytes float64
	// Steps is the number of synchronised ring steps (P-1 for AG/RdS on a
	// ring of P, P+D-2 pipeline stages for bcast/reduce, 1 for Shift).
	Steps int
	// Packets is the fine-grain packet count D for Broadcast/Reduce.
	Packets int

	// FLOPs is the floating-point work of a Compute op.
	FLOPs float64
	// M, N, K are the local GeMM dimensions of a Compute op when known
	// (zero otherwise); the tiled chip model (package chipsim) uses them
	// to capture occupancy and prefetch effects the flat FLOPs cannot.
	M, N, K int
	// HBMBytes is the memory traffic of the op: Compute ops stream their
	// operands, Slice ops copy a sub-shard in and out. Used by the HBM
	// contention model.
	HBMBytes float64

	// Deps lists indices of same-chip ops that must complete first. The
	// builders hand out windows of one arena per program with no spare
	// capacity (cap == len), so an append copies and never writes into
	// another op's list; ops may share a window.
	Deps []int
}

// Program is the SPMD operation graph all chips execute, plus the mesh it
// targets.
type Program struct {
	Torus topology.Torus
	// Grid3 targets the program at a 3D torus instead (2.5D GeMM,
	// MeshSlice+DP); when set it overrides Torus for chip count and ring
	// structure, and ops may use topology.InterDepth.
	Grid3 *topology.Torus3D
	Ops   []Op
	// Label names the algorithm/configuration for reports.
	Label string
}

// Chips returns the number of chips the program runs on.
func (p *Program) Chips() int {
	if p.Grid3 != nil {
		return p.Grid3.Size()
	}
	return p.Torus.Size()
}

// RingMembers returns the ranks of the chip's communication ring for a
// direction, ordered by ring position.
func (p *Program) RingMembers(chip int, d topology.Direction) []int {
	if p.Grid3 != nil {
		return p.Grid3.RingMembers(chip, d)
	}
	coord := p.Torus.Coord(chip)
	ring := p.Torus.Ring(coord, d)
	out := make([]int, len(ring))
	for i, c := range ring {
		out[i] = p.Torus.Rank(c)
	}
	return out
}

// Validate checks structural sanity: dependencies in range and acyclic
// (forward-only), comm fields present where required.
func (p *Program) Validate() error {
	for i := range p.Ops {
		op := &p.Ops[i]
		for _, d := range op.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("sched: op %d (%s) has dependency %d outside [0,%d)", i, op.Name, d, i)
			}
		}
		if op.Kind.IsComm() {
			if op.Steps <= 0 {
				return fmt.Errorf("sched: comm op %d (%s) has %d steps", i, op.Name, op.Steps)
			}
			if op.Bytes < 0 {
				return fmt.Errorf("sched: comm op %d (%s) has negative bytes", i, op.Name)
			}
			if (op.Kind == Broadcast || op.Kind == Reduce) && op.Packets <= 0 {
				return fmt.Errorf("sched: comm op %d (%s) streams %d packets", i, op.Name, op.Packets)
			}
			if op.Dir == topology.InterDepth && p.Grid3 == nil {
				return fmt.Errorf("sched: comm op %d (%s) uses the depth direction on a 2D mesh", i, op.Name)
			}
		}
		if op.Kind == Compute && op.FLOPs < 0 {
			return fmt.Errorf("sched: compute op %d (%s) has negative FLOPs", i, op.Name)
		}
	}
	return nil
}

// TotalFLOPs sums the compute work of the program (per chip).
// lint:allow unused netsim's tests check simulated compute against it
func (p *Program) TotalFLOPs() float64 {
	var total float64
	for i := range p.Ops {
		if op := &p.Ops[i]; op.Kind == Compute {
			total += op.FLOPs
		}
	}
	return total
}

// builder accumulates ops with a fluent chip-program API. Building a
// program allocates a fixed number of objects whatever its op count: the op
// list and the dependency arena are reserved once, and indexed op names
// come from the interned tables below.
type builder struct {
	ops  []Op
	deps []int // the arena every Deps window points into
}

// newBuilder returns a builder with room for maxOps ops and maxDeps
// dependency entries — each schedule knows both bounds from its slice or
// iteration count — so neither list is regrown as it fills.
func newBuilder(maxOps, maxDeps int) builder {
	return builder{ops: make([]Op, 0, maxOps), deps: make([]int, 0, maxDeps)}
}

// add appends op and returns its index.
func (b *builder) add(op Op) int {
	b.ops = append(b.ops, op)
	return len(b.ops) - 1
}

// addIndexed appends op named by family f and index i ("partial GeMM s="
// and 3 name it "partial GeMM s=3") and returns its index.
func (b *builder) addIndexed(op Op, f nameFamily, i int) int {
	if uint(i) < internedIndices {
		op.Name = internedNames[f][i]
	} else {
		op.Name = familyPrefix[f] + strconv.Itoa(i)
	}
	return b.add(op)
}

// dep copies ids into the arena and returns their window, or nil for none.
// A window has no spare capacity, so appending to it never reaches the
// next op's list.
func (b *builder) dep(ids ...int) []int {
	if len(ids) == 0 {
		return nil
	}
	w := b.window(len(ids))
	copy(w, ids)
	return w
}

// window reserves n zeroed arena entries as one window, for a list that is
// filled in as its ops are added.
func (b *builder) window(n int) []int {
	lo := len(b.deps)
	b.deps = append(b.deps, make([]int, n)...)
	return b.deps[lo:len(b.deps):len(b.deps)]
}

// follow returns the dependency of a shift on the shift before it in the
// same direction, prev[which], as a window of prev; nil when prev holds no
// such shift (the first shift of a chain).
func follow(prev []int, which int) []int {
	if which >= len(prev) {
		return nil
	}
	return prev[which : which+1 : which+1]
}

// nameFamily is the prefix of an indexed op name; the builder appends the
// decimal index. Every family has an interned table, so an indexed name
// costs no allocation for indices below internedIndices.
type nameFamily uint8

const (
	agColA, agRowB, rdsColC, rdsRowC nameFamily = 0, 1, 2, 3
	sliceAs, sliceBs, unsliceC       nameFamily = 4, 5, 6
	// The partial GeMMs of MeshSlice's slices, SUMMA's panels, Cannon's
	// and 2.5D's systolic steps, Wang's shard groups and the 1D rings.
	gemmS, gemmP, gemmT, gemmG, gemmIt                   nameFamily = 7, 8, 9, 10, 11
	bcastColA, bcastRowB, reduceColC, reduceRowC         nameFamily = 12, 13, 14, 15
	shiftAT, shiftBT, sendRecvG, sendRecvIt, numFamilies nameFamily = 16, 17, 18, 19, 20
)

var familyPrefix = [numFamilies]string{
	agColA: "AG_col A s=", agRowB: "AG_row B s=", rdsColC: "RdS_col C s=", rdsRowC: "RdS_row C s=",
	sliceAs: "slice A_s s=", sliceBs: "slice B_s s=", unsliceC: "unslice C s=",
	gemmS: "partial GeMM s=", gemmP: "partial GeMM p=", gemmT: "partial GeMM t=",
	gemmG: "partial GeMM g=", gemmIt: "partial GeMM it=",
	bcastColA: "bcast_col A p=", bcastRowB: "bcast_row B p=",
	reduceColC: "reduce_col C p=", reduceRowC: "reduce_row C p=",
	shiftAT: "shift A t=", shiftBT: "shift B t=", sendRecvG: "SendRecv g=", sendRecvIt: "SendRecv it=",
}

const internedIndices = 256

// internedNames[f][i] is familyPrefix[f] followed by i.
var internedNames [numFamilies][internedIndices]string

func init() {
	for f, prefix := range familyPrefix {
		for i := range internedNames[f] {
			internedNames[f][i] = prefix + strconv.Itoa(i)
		}
	}
}
