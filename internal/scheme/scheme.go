// Package scheme defines the on-package capacity policy: how a program
// access is routed between the on-package and off-package regions, what
// state is kept per slot or set, and what background traffic a hit, miss,
// fill, or writeback generates.
//
// The paper under reproduction manages the on-package DRAM as *memory*
// (macro pages migrated by the N / N-1 / Live designs). The literature it
// argues against manages the same capacity as a *cache* (AlloyCache, the
// tag-in-DRAM L4 "CacheMode" strawman of the paper's own Section II), and
// "Die-Stacked DRAM: Memory, Cache, or MemCache?" splits it into both. All
// of these are selected by Spec, so the sweep, checkpoint, and fleet
// machinery race them under one harness. Every scheme but migrate runs a
// Cache engine in the controller:
//
//	migrate    — the paper's designs, driven by core.Migrator (no Cache)
//	alloy      — direct-mapped, tag-and-data fused in one burst (TAD)
//	alloy-pred — alloy plus a miss predictor (MAP-style, address-indexed)
//	cachemode  — set-associative tag-in-DRAM L4 with an SRAM tag buffer
//	memcache   — part memory (migration machinery), part alloy-style cache
package scheme

import (
	"fmt"
	"strconv"
	"strings"

	"heteromem/internal/snap"
)

// Kind enumerates the capacity policies. The zero value is the paper's
// migration scheme, so zero-valued configs everywhere keep their meaning.
type Kind uint8

// The implemented schemes.
const (
	KindMigrate   Kind = iota // paper designs N / N-1 / Live (or static, no migrator)
	KindAlloy                 // direct-mapped TAD cache (AlloyCache, MICRO'11)
	KindCacheMode             // set-associative tag-in-DRAM L4 + SRAM tag buffer
	KindMemCache              // part-cache/part-memory split
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindMigrate:
		return "migrate"
	case KindAlloy:
		return "alloy"
	case KindCacheMode:
		return "cachemode"
	case KindMemCache:
		return "memcache"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// DefaultMemPercent is the memory share of the on-package capacity under
// memcache when the spec does not pin one.
const DefaultMemPercent = 50

// Spec selects and parameterizes a scheme. The zero value is the default
// migration scheme, which keeps every pre-scheme config digest and golden
// byte-identical.
type Spec struct {
	Kind Kind

	// Predictor enables the miss predictor on the alloy-style cache
	// (alloy and the cache part of memcache): a predicted miss overlaps
	// the TAD probe with the off-package fetch instead of serializing it.
	Predictor bool

	// MemPercent is the memcache split: the percentage of the on-package
	// capacity run as migrated memory (the rest is the cache part).
	// 0 means DefaultMemPercent. Only meaningful for KindMemCache.
	MemPercent int
}

// Parse reads a scheme name as accepted by hmsim -scheme. The empty string
// and "migrate" are the paper's migration scheme; "memcache" and
// "memcache-pred" take an optional ":NN" memory-percent suffix (e.g.
// "memcache:25").
func Parse(s string) (Spec, error) {
	name, arg, hasArg := strings.Cut(s, ":")
	var sp Spec
	switch name {
	case "", "migrate":
		sp.Kind = KindMigrate
	case "alloy":
		sp.Kind = KindAlloy
	case "alloy-pred":
		sp.Kind = KindAlloy
		sp.Predictor = true
	case "cachemode":
		sp.Kind = KindCacheMode
	case "memcache":
		sp.Kind = KindMemCache
	case "memcache-pred":
		sp.Kind = KindMemCache
		sp.Predictor = true
	default:
		return Spec{}, fmt.Errorf("scheme: unknown scheme %q (want migrate, alloy, alloy-pred, cachemode, or memcache[:PCT])", s)
	}
	if hasArg {
		if sp.Kind != KindMemCache {
			return Spec{}, fmt.Errorf("scheme: %s takes no argument (got %q)", name, s)
		}
		pct, err := strconv.Atoi(arg)
		if err != nil || pct < 1 || pct > 99 {
			return Spec{}, fmt.Errorf("scheme: memcache split %q must be an integer percent in [1,99]", arg)
		}
		if pct != DefaultMemPercent { // canonical: the default split is the zero value
			sp.MemPercent = pct
		}
	}
	return sp, sp.Validate()
}

// String renders the canonical name Parse accepts. The default memcache
// split prints bare so specs round-trip to their shortest spelling.
func (sp Spec) String() string {
	switch sp.Kind {
	case KindAlloy:
		if sp.Predictor {
			return "alloy-pred"
		}
		return "alloy"
	case KindCacheMode:
		return "cachemode"
	case KindMemCache:
		s := "memcache"
		if sp.Predictor {
			s = "memcache-pred"
		}
		if p := sp.memPercent(); p != DefaultMemPercent {
			return fmt.Sprintf("%s:%d", s, p)
		}
		return s
	}
	return "migrate"
}

func (sp Spec) memPercent() int {
	if sp.MemPercent == 0 {
		return DefaultMemPercent
	}
	return sp.MemPercent
}

// MemFraction returns the memcache memory share as bytes of cap, rounded
// down to a multiple of pageSize.
func (sp Spec) MemFraction(capacity, pageSize uint64) uint64 {
	mem := capacity * uint64(sp.memPercent()) / 100
	return mem - mem%pageSize
}

// Validate rejects malformed specs.
func (sp Spec) Validate() error {
	switch sp.Kind {
	case KindMigrate, KindAlloy, KindCacheMode, KindMemCache:
	default:
		return fmt.Errorf("scheme: invalid kind %d", sp.Kind)
	}
	if sp.Predictor && sp.Kind != KindAlloy && sp.Kind != KindMemCache {
		return fmt.Errorf("scheme: predictor applies only to alloy-style caches, not %s", sp.Kind)
	}
	if sp.MemPercent != 0 {
		if sp.Kind != KindMemCache {
			return fmt.Errorf("scheme: memory percent applies only to memcache, not %s", sp.Kind)
		}
		if sp.MemPercent < 1 || sp.MemPercent > 99 {
			return fmt.Errorf("scheme: memcache memory percent %d out of [1,99]", sp.MemPercent)
		}
	}
	return nil
}

// IsCache reports whether the scheme runs the whole on-package capacity as
// a cache (no migration engine at all).
func (sp Spec) IsCache() bool { return sp.Kind == KindAlloy || sp.Kind == KindCacheMode }

// CheckMigration is the scheme's rule for the migration engine: a cache
// scheme runs none, so it takes no migration and has no translation table
// to audit; memcache runs its memory share under migration, so it needs
// one.
func (sp Spec) CheckMigration(migrates, audit bool) error {
	switch {
	case sp.IsCache() && migrates:
		return fmt.Errorf("scheme: %s manages the on-package capacity as a cache; migration does not apply", sp)
	case sp.IsCache() && audit:
		return fmt.Errorf("scheme: %s has no translation table to audit", sp)
	case sp.Kind == KindMemCache && !migrates:
		return fmt.Errorf("scheme: %s runs its memory share under migration; a migration design is required", sp)
	}
	return nil
}

// Stats counts scheme-level events. All fields are cumulative.
type Stats struct {
	Accesses   uint64 // lookups routed through the cache engine
	Hits       uint64
	Misses     uint64
	Fills      uint64 // blocks installed (== misses for the implemented caches)
	Writebacks uint64 // dirty victims pushed off-package
	TagProbes  uint64 // serial in-DRAM tag reads (SRAM tag-buffer misses)
	ProbeSkips uint64 // predicted misses whose probe overlapped the fetch
	WastedOff  uint64 // predicted misses that actually hit (off fetch wasted)
}

// HitRate returns Hits/Accesses (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// snap carries the counters.
func (st *Stats) snap(s *snap.Stream) {
	for _, c := range []*uint64{
		&st.Accesses, &st.Hits, &st.Misses, &st.Fills,
		&st.Writebacks, &st.TagProbes, &st.ProbeSkips, &st.WastedOff,
	} {
		s.U64(c)
	}
}

// Add accumulates o into s (used by the sharded hub's report merge).
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Fills += o.Fills
	s.Writebacks += o.Writebacks
	s.TagProbes += o.TagProbes
	s.ProbeSkips += o.ProbeSkips
	s.WastedOff += o.WastedOff
}

// Result describes how one access routes and what background traffic it
// owes. Slot and WBAddr are byte addresses; Slot is in the on-package
// machine space, WBAddr in the physical space.
type Result struct {
	Hit bool

	// Probe: a DRAM tag access is needed before (serial) or alongside
	// (Parallel) the data access. For alloy the probe IS the fused TAD
	// data burst; for cachemode it is a separate tag-line read.
	Probe    bool
	Parallel bool

	// WastedOff: the predictor guessed miss, launched the off-package
	// fetch, and the access hit anyway — the fetch burns off bandwidth.
	WastedOff bool

	Slot uint64 // on-package machine address serving (or receiving) the block

	// Writeback of the evicted dirty victim. VictimRead marks schemes
	// whose tag probe does not return the victim's data (cachemode), so
	// the writeback additionally costs an on-package read burst.
	WB         bool
	WBAddr     uint64
	VictimRead bool
}

// Cache is the block-grain engine behind the cache-managed schemes. Lookup
// must not allocate: it is on the per-record access path. Every
// implementation is a snap.Snapshotter: its state rides in the controller
// checkpoint so resume-equivalence and distributed-sweep takeover hold per
// scheme.
type Cache interface {
	String() string
	Stats() Stats
	snap.Snapshotter
	Lookup(phys uint64, write bool) Result
	BlockBytes() uint64
}
