package explore

import (
	"fmt"
	"math"
	"strings"

	"swsm/internal/apps"
	"swsm/internal/comm"
	"swsm/internal/fault"
	"swsm/internal/harness"
	"swsm/internal/hetero"
	"swsm/internal/proto"
)

// Space is the finite configuration grid an exploration searches.  Each
// field lists the admissible values of one search dimension; empty
// slices take the defaults below.  The space is deliberately expressed
// in the named vocabulary of the paper's experiments (comm sets A/H/B/
// W/B+, cost sets O/H/B) so every point the optimizer proposes is an
// ordinary RunSpec any other front-end could have submitted — and
// therefore shares its memo key and store row with them.
type Space struct {
	// Protocols to consider ("hlrc", "lrc", "sc").
	Protocols []harness.ProtocolKind `json:"protocols,omitempty"`
	// CommSets are named communication-parameter sets (comm.ParamsByName:
	// "A", "H", "B", "W", "B+").
	CommSets []string `json:"commSets,omitempty"`
	// CostSets are named protocol-cost sets (proto.CostsByName: "O",
	// "H", "B").
	CostSets []string `json:"costSets,omitempty"`
	// Procs are the processor counts to consider.
	Procs []int `json:"procs,omitempty"`
	// HLRCUnitShifts are HLRC coherence-unit overrides as log2(bytes);
	// 0 means the 4 KB page.  Only meaningful for the hlrc protocol —
	// the dimension is pinned to its first value elsewhere.
	HLRCUnitShifts []uint `json:"hlrcUnitShifts,omitempty"`
	// SCBlocks are SC granularity overrides in bytes; 0 means the
	// application's preferred block.  Only meaningful for sc.
	SCBlocks []int `json:"scBlocks,omitempty"`
	// DropPPMs are optional fault rates (dropped transmissions per
	// million) to consider; 0 means the reliable fabric.
	DropPPMs []int64 `json:"dropPPMs,omitempty"`
	// FaultSeed seeds fault injection for points with a nonzero drop
	// rate (default 1).
	FaultSeed uint64 `json:"faultSeed,omitempty"`
	// Skews are named heterogeneity presets (hetero.PresetNames:
	// "uniform", "cpu2".."cpu8", "accel2".."accel8", "link4"/"link8",
	// "mixed"); "uniform" means the paper's identical nodes.
	Skews []string `json:"skews,omitempty"`
	// Placements are named placement policies (harness.PlacementNames:
	// "app", "rr", "adaptive", "adaptive+grain").  The adaptive policies
	// are HLRC-only — the dimension is pinned to its first value
	// elsewhere, so include "app" or "rr" first when searching several
	// protocols.
	Placements []string `json:"placements,omitempty"`
}

// The search dimensions, in the fixed order every deterministic
// traversal (seeding, neighbor proposal, coordinate descent) uses.
const (
	dimProto = iota
	dimComm
	dimCost
	dimProcs
	dimUnit
	dimBlock
	dimDrop
	dimSkew
	dimPlace
	numDims
)

// vec indexes one point of the space: vec[d] selects a value from
// dimension d's list.  Canonicalized vecs (see canon) are bijective
// with RunSpecs, so a map[vec]bool is the exact dedupe set.
type vec [numDims]int

func (s Space) withDefaults() Space {
	if len(s.Protocols) == 0 {
		s.Protocols = []harness.ProtocolKind{harness.HLRC, harness.LRC, harness.SC}
	}
	if len(s.CommSets) == 0 {
		s.CommSets = []string{"A", "H", "B", "W", "B+"}
	}
	if len(s.CostSets) == 0 {
		s.CostSets = []string{"O", "H", "B"}
	}
	if len(s.Procs) == 0 {
		s.Procs = []int{4, 8, 16, 32}
	}
	if len(s.HLRCUnitShifts) == 0 {
		s.HLRCUnitShifts = []uint{0, 10, 11}
	}
	if len(s.SCBlocks) == 0 {
		s.SCBlocks = []int{0, 64, 256}
	}
	if len(s.DropPPMs) == 0 {
		s.DropPPMs = []int64{0}
	}
	if s.FaultSeed == 0 {
		s.FaultSeed = 1
	}
	if len(s.Skews) == 0 {
		s.Skews = []string{"uniform"}
	}
	if len(s.Placements) == 0 {
		s.Placements = []string{"app"}
	}
	return s
}

func (s Space) validate() error {
	// A repeated value would be proposed, and charged, once per copy —
	// and lists of repeats are how a request overflows size.
	for _, err := range []error{
		distinct("protocol", s.Protocols), distinct("comm set", s.CommSets),
		distinct("cost set", s.CostSets), distinct("procs", s.Procs),
		distinct("hlrc unit shift", s.HLRCUnitShifts), distinct("sc block", s.SCBlocks),
		distinct("drop rate", s.DropPPMs), distinct("skew", s.Skews),
		distinct("placement", s.Placements),
	} {
		if err != nil {
			return err
		}
	}
	for _, p := range s.Protocols {
		switch p {
		case harness.HLRC, harness.LRC, harness.SC:
		default:
			return fmt.Errorf("explore: protocol %q not searchable (want hlrc, lrc or sc)", p)
		}
	}
	for _, n := range s.CommSets {
		if _, err := comm.ParamsByName(n); err != nil {
			return fmt.Errorf("explore: comm set %q: %v", n, err)
		}
	}
	for _, n := range s.CostSets {
		if _, ok := proto.CostsByName(n); !ok {
			return fmt.Errorf("explore: unknown cost set %q (want O, H or B)", n)
		}
	}
	for _, p := range s.Procs {
		if p < 1 || p > 64 {
			return fmt.Errorf("explore: procs %d out of range [1,64]", p)
		}
	}
	for _, sh := range s.HLRCUnitShifts {
		if sh > 12 {
			return fmt.Errorf("explore: hlrc unit shift %d exceeds the page (12)", sh)
		}
	}
	for _, b := range s.SCBlocks {
		if b < 0 || b > 4096 {
			return fmt.Errorf("explore: sc block %d out of range [0,4096]", b)
		}
	}
	for _, d := range s.DropPPMs {
		if d < 0 || d >= 1_000_000 {
			return fmt.Errorf("explore: drop rate %d PPM out of range [0,1e6)", d)
		}
	}
	for _, n := range s.Skews {
		if _, err := hetero.PresetByName(n); err != nil {
			return fmt.Errorf("explore: skew %q: %v", n, err)
		}
	}
	for _, n := range s.Placements {
		if _, err := harness.HeteroSpec("uniform", n); err != nil {
			return fmt.Errorf("explore: placement %q: %v", n, err)
		}
	}
	return nil
}

func distinct[T comparable](dim string, vals []T) error {
	seen := make(map[T]bool, len(vals))
	for _, v := range vals {
		if seen[v] {
			return fmt.Errorf("explore: %s %v listed twice", dim, v)
		}
		seen[v] = true
	}
	return nil
}

// dims returns the per-dimension value counts in dimension order.
func (s Space) dims() [numDims]int {
	return [numDims]int{
		dimProto: len(s.Protocols),
		dimComm:  len(s.CommSets),
		dimCost:  len(s.CostSets),
		dimProcs: len(s.Procs),
		dimUnit:  len(s.HLRCUnitShifts),
		dimBlock: len(s.SCBlocks),
		dimDrop:  len(s.DropPPMs),
		dimSkew:  len(s.Skews),
		dimPlace: len(s.Placements),
	}
}

// size is the number of distinct canonical points (protocol-irrelevant
// dimensions collapse, so this over-counts only when both unit and
// block lists exceed one entry for non-matching protocols).  It
// saturates at math.MaxInt rather than wrap.
func (s Space) size() int {
	n := 0
	d := s.dims()
	for _, p := range s.Protocols {
		per := 1
		dims := []int{dimComm, dimCost, dimProcs, dimDrop, dimSkew}
		switch p {
		case harness.HLRC:
			dims = append(dims, dimUnit, dimPlace)
		case harness.SC:
			dims = append(dims, dimBlock)
		}
		for _, k := range dims {
			if d[k] > 0 && per > math.MaxInt/d[k] {
				return math.MaxInt
			}
			per *= d[k]
		}
		if n > math.MaxInt-per {
			return math.MaxInt
		}
		n += per
	}
	return n
}

// canon pins dimensions that are meaningless for v's protocol to their
// first value, making vec<->RunSpec a bijection: without it, the same
// simulation would be proposed (and charged) once per irrelevant index.
func (s Space) canon(v vec) vec {
	p := s.Protocols[v[dimProto]]
	if p != harness.HLRC {
		v[dimUnit] = 0
		// Adaptive home migration lives in the HLRC protocol; under the
		// others every placement beyond the first would re-run the same
		// simulation under a different key.
		v[dimPlace] = 0
	}
	if p != harness.SC {
		v[dimBlock] = 0
	}
	if p == harness.HLRC && s.Placements[v[dimPlace]] == "adaptive+grain" {
		// Adaptive grain supersedes the static unit-shift override (the
		// harness rejects the combination).
		v[dimUnit] = 0
	}
	return v
}

// spec materializes a canonical vec as a RunSpec for (app, scale).
// Validation has already vetted every name, so lookups cannot fail.
func (s Space) spec(app string, scale apps.Scale, v vec) harness.RunSpec {
	cp, err := comm.ParamsByName(s.CommSets[v[dimComm]])
	if err != nil {
		panic(fmt.Sprintf("explore: validated comm set vanished: %v", err))
	}
	costs, ok := proto.CostsByName(s.CostSets[v[dimCost]])
	if !ok {
		panic(fmt.Sprintf("explore: validated cost set %q vanished", s.CostSets[v[dimCost]]))
	}
	placement := s.Placements[v[dimPlace]]
	hs, err := harness.HeteroSpec(s.Skews[v[dimSkew]], placement)
	if err != nil {
		panic(fmt.Sprintf("explore: validated hetero point vanished: %v", err))
	}
	spec := harness.RunSpec{
		App:          app,
		Scale:        scale,
		Protocol:     s.Protocols[v[dimProto]],
		Procs:        s.Procs[v[dimProcs]],
		Comm:         cp,
		Costs:        costs,
		CacheEnabled: true,
		Hetero:       hs,
	}
	if spec.Protocol == harness.HLRC && spec.Hetero.Grain != hetero.GrainAdaptive {
		spec.HLRCUnitShift = s.HLRCUnitShifts[v[dimUnit]]
	}
	if spec.Protocol == harness.SC {
		spec.SCBlockOverride = s.SCBlocks[v[dimBlock]]
	}
	if ppm := s.DropPPMs[v[dimDrop]]; ppm > 0 {
		spec.Fault = fault.Spec{Seed: s.FaultSeed, DropPPM: ppm}
	}
	return spec
}

// label renders a short human-readable name for a point, e.g.
// "hlrc/AO/p16/u10" — protocol, comm+cost set, procs, then only the
// overrides that differ from their defaults.
func (s Space) label(v vec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s%s/p%d",
		s.Protocols[v[dimProto]], s.CommSets[v[dimComm]], s.CostSets[v[dimCost]], s.Procs[v[dimProcs]])
	if s.Protocols[v[dimProto]] == harness.HLRC {
		if sh := s.HLRCUnitShifts[v[dimUnit]]; sh != 0 {
			fmt.Fprintf(&b, "/u%d", sh)
		}
	}
	if s.Protocols[v[dimProto]] == harness.SC {
		if blk := s.SCBlocks[v[dimBlock]]; blk != 0 {
			fmt.Fprintf(&b, "/b%d", blk)
		}
	}
	if ppm := s.DropPPMs[v[dimDrop]]; ppm != 0 {
		fmt.Fprintf(&b, "/d%d", ppm)
	}
	if skew := s.Skews[v[dimSkew]]; skew != "uniform" {
		fmt.Fprintf(&b, "/%s", skew)
	}
	if pl := s.Placements[v[dimPlace]]; pl != "app" {
		fmt.Fprintf(&b, "/%s", pl)
	}
	return b.String()
}
