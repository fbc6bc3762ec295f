// Package dram models DRAM device timing for one memory region: channels,
// banks, open-page row buffers, and data-bus occupancy. The trace-based
// evaluation of the paper uses exactly this structure: "we model the
// detailed DRAM access latency by assuming FR-FCFS scheduling policy and
// open page access. We use 8-bank structure for the off-package DRAM and
// 128-bank structure for the on-package DRAM."
//
// The model is a resource-reservation simulation: each bank remembers its
// open row and the cycle it next becomes ready; each channel remembers when
// its data bus frees up. Servicing a request advances those clocks and
// returns the request's completion time, so queuing delay emerges from
// contention rather than being assumed.
package dram

import (
	"fmt"
	"math/bits"

	"heteromem/internal/config"
	"heteromem/internal/obs"
)

// Geometry fixes the structure of one region's DRAM.
type Geometry struct {
	Channels   int
	BanksPerCh int
	RowBytes   uint64 // row-buffer (DRAM page) size
	BurstBytes uint64 // bytes per scheduled burst (cache line)
}

// Device is the timing model for one region (on-package or off-package).
type Device struct {
	geom   Geometry
	timing config.DDR3Timing

	banks   [][]bank // [channel][bank]
	busFree []int64  // [channel] cycle the data bus frees

	// Decode's shifts and masks, fixed at construction so decoding an
	// address is shifts, XORs and masks only.
	burstShift uint // log2(BurstBytes)
	bankShift  uint // log2(channels × row columns): line bits below the bank
	rowShift   uint // bankShift + log2(banks): line bits below the row
	bankMask   uint64
	chanMask   uint64

	// faultHook, when set, is consulted once per serviced request burst;
	// returning true marks the delivered data as faulty (the burst still
	// consumed its bus and bank time — the device cannot know in advance).
	faultHook func(loc Location, write bool, at int64) bool

	// Statistics.
	rowHits       uint64
	rowMisses     uint64
	rowConf       uint64 // row-buffer conflicts (row open but different)
	bursts        uint64
	refreshStalls uint64 // commands delayed by a refresh window
	faultedBursts uint64 // serviced bursts the fault hook marked bad
}

type bank struct {
	openRow   int64 // -1 when closed
	readyAt   int64 // earliest cycle a new column command may issue
	lastWrite bool  // last column op was a write (tWR applies at precharge)
}

// New builds a Device. Channel and bank counts and the burst size must be
// powers of two so the address can be sliced with shifts and masks.
func New(geom Geometry, timing config.DDR3Timing) (*Device, error) {
	if geom.Channels <= 0 || geom.Channels&(geom.Channels-1) != 0 {
		return nil, fmt.Errorf("dram: channel count %d must be a positive power of two", geom.Channels)
	}
	if geom.BanksPerCh <= 0 || geom.BanksPerCh&(geom.BanksPerCh-1) != 0 {
		return nil, fmt.Errorf("dram: bank count %d must be a positive power of two", geom.BanksPerCh)
	}
	if geom.BurstBytes == 0 || geom.BurstBytes&(geom.BurstBytes-1) != 0 {
		return nil, fmt.Errorf("dram: burst %d must be a positive power of two", geom.BurstBytes)
	}
	if geom.RowBytes == 0 || geom.RowBytes%geom.BurstBytes != 0 {
		return nil, fmt.Errorf("dram: row %d must be a positive multiple of burst %d", geom.RowBytes, geom.BurstBytes)
	}
	bankShift := uint(bits.Len64(uint64(geom.Channels)) + bits.Len64(geom.RowBytes/geom.BurstBytes) - 2)
	d := &Device{
		geom:       geom,
		timing:     timing,
		busFree:    make([]int64, geom.Channels),
		burstShift: uint(bits.Len64(geom.BurstBytes) - 1),
		bankShift:  bankShift,
		rowShift:   bankShift + uint(bits.Len64(uint64(geom.BanksPerCh))-1),
		bankMask:   uint64(geom.BanksPerCh - 1),
		chanMask:   uint64(geom.Channels - 1),
	}
	d.banks = make([][]bank, geom.Channels)
	for c := range d.banks {
		d.banks[c] = make([]bank, geom.BanksPerCh)
		for b := range d.banks[c] {
			d.banks[c][b].openRow = -1
		}
	}
	return d, nil
}

// Location is the decoded DRAM coordinates of an address.
type Location struct {
	Channel int
	Bank    int
	Row     int64
}

// Decode maps a region-relative byte address to DRAM coordinates. The
// mapping is the usual open-page-friendly row:bank:column:channel:offset
// split — consecutive cache lines rotate channels, lines within a channel
// fill a row before switching banks — with the channel and bank indices
// XOR-permuted by row bits (permutation-based interleaving, Zhang et al.),
// so power-of-two strides do not resonate onto a single bank.
//
// A caller that touches the same address more than once (a scheduler
// queue) decodes it once and passes the Location to RowHit and
// ServiceChecked.
func (d *Device) Decode(a uint64) Location {
	line := a >> d.burstShift
	row := line >> d.rowShift
	return Location{
		Channel: int((line ^ row) & d.chanMask),
		Bank:    int((line>>d.bankShift ^ row) & d.bankMask),
		Row:     int64(row),
	}
}

// RowHit reports whether an access at loc would hit the currently open row.
func (d *Device) RowHit(loc Location) bool {
	return d.banks[loc.Channel][loc.Bank].openRow == loc.Row
}

// BusFree returns the cycle channel ch's data bus next frees. Under a
// scheduler that defers idle background progress (sched.Scheduler) it is
// exact only once that scheduler has settled the channel.
func (d *Device) BusFree(ch int) int64 { return d.busFree[ch] }

// Service performs one burst access to address a, not earlier than cycle
// `at`, and returns the cycle the data transfer completes. Bank and bus
// state advance accordingly.
//
// Column commands to an open row pipeline at burst rate (tCCD ~ tBurst):
// the TCL data latency overlaps across consecutive row hits, so a
// sequential stream saturates the data bus, not the sense amplifiers —
// matching real DDRx behaviour and the paper's premise that the wide
// on-package interface streams at interposer speed.
func (d *Device) Service(a uint64, write bool, at int64) (done, coreLat int64) {
	done, coreLat, _ = d.ServiceChecked(d.Decode(a), write, at)
	return done, coreLat
}

// ServiceChecked is Service on an already decoded address plus the
// device-fault check: faulted reports whether the configured fault hook
// failed this burst (the caller decides whether to retry; the timing cost
// has already been paid either way).
func (d *Device) ServiceChecked(loc Location, write bool, at int64) (done, coreLat int64, faulted bool) {
	bk := &d.banks[loc.Channel][loc.Bank]
	issue := at
	if bk.readyAt > issue {
		issue = bk.readyAt
	}
	issue = d.afterRefresh(issue)
	var rowDelay int64
	switch {
	case bk.openRow == loc.Row:
		d.rowHits++
	case bk.openRow < 0:
		d.rowMisses++
		rowDelay = d.timing.TRCD
		bk.openRow = loc.Row
	default:
		d.rowConf++
		rowDelay = d.timing.TRP + d.timing.TRCD
		if bk.lastWrite {
			rowDelay += d.timing.TWR // write recovery before precharge
		}
		bk.openRow = loc.Row
	}
	// Data appears TCL after the column command; the burst then occupies
	// the shared data bus.
	dataStart := issue + rowDelay + d.timing.TCL
	if d.busFree[loc.Channel] > dataStart {
		dataStart = d.busFree[loc.Channel]
	}
	done = dataStart + d.timing.TBurst
	d.busFree[loc.Channel] = done
	// The bank can take its next column command one burst slot after this
	// one (tCCD); a row change pays the activation first.
	bk.readyAt = issue + rowDelay + d.timing.TBurst
	bk.lastWrite = write
	d.bursts++
	// The DRAM-core portion: what this access would cost on an idle bank
	// and bus, given the row-buffer state it found (Table IV's per-workload
	// "DRAM core latency" row is the average of exactly this).
	if d.faultHook != nil && d.faultHook(loc, write, issue) {
		d.faultedBursts++
		faulted = true
	}
	return done, rowDelay + d.timing.TCL + d.timing.TBurst, faulted
}

// SetFaultHook installs (or clears, with nil) the per-burst fault check
// consulted by ServiceChecked.
func (d *Device) SetFaultHook(h func(loc Location, write bool, at int64) bool) {
	d.faultHook = h
}

// ReserveBus blocks channel ch's data bus for dur cycles starting no
// earlier than `at`, returning the completion cycle, and counts the
// transfer's bursts. Used for synchronous bulk transfers (migration
// sub-block copies) whose per-burst detail is aggregated.
func (d *Device) ReserveBus(ch int, at, dur int64) int64 {
	d.CountTransfer(dur)
	return d.ReserveSlice(ch, at, dur)
}

// ReserveSlice is ReserveBus for one piece of a preemptible background
// transfer: it blocks the bus the same way but counts no bursts. The
// transfer's owner counts them once, with CountTransfer, when the whole
// transfer has moved, so the count does not depend on how the transfer
// was cut into pieces.
func (d *Device) ReserveSlice(ch int, at, dur int64) int64 {
	t := at
	if d.busFree[ch] > t {
		t = d.busFree[ch]
	}
	t = d.afterRefresh(t)
	end := t + dur
	d.busFree[ch] = end
	return end
}

// CountTransfer counts the bursts of a bus transfer of dur cycles: dur /
// TBurst, floored.
func (d *Device) CountTransfer(dur int64) {
	d.bursts += uint64(dur / max(d.timing.TBurst, 1))
}

// Stats returns cumulative (rowHits, rowMisses, rowConflicts, bursts).
func (d *Device) Stats() (hits, misses, conflicts, bursts uint64) {
	return d.rowHits, d.rowMisses, d.rowConf, d.bursts
}

// RefreshStalls returns how many commands a refresh window delayed.
func (d *Device) RefreshStalls() uint64 { return d.refreshStalls }

// PublishObs exports the device's cumulative statistics into reg as gauges
// under prefix (e.g. "dram.on"). The device keeps its counters locally so
// the timing hot path stays untouched; call this at snapshot time.
func (d *Device) PublishObs(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Gauge(prefix + ".row_hits").Set(int64(d.rowHits))
	reg.Gauge(prefix + ".row_misses").Set(int64(d.rowMisses))
	reg.Gauge(prefix + ".row_conflicts").Set(int64(d.rowConf))
	reg.Gauge(prefix + ".bursts").Set(int64(d.bursts))
	reg.Gauge(prefix + ".refresh_stalls").Set(int64(d.refreshStalls))
	if d.faultHook != nil {
		// Only surfaced when fault injection is wired, so fault-free runs
		// keep their exact pre-fault metric snapshots.
		reg.Gauge(prefix + ".faulted_bursts").Set(int64(d.faultedBursts))
	}
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// Timing returns the device timing parameters.
func (d *Device) Timing() config.DDR3Timing { return d.timing }

// Reset clears all bank/bus state and statistics.
func (d *Device) Reset() {
	for c := range d.banks {
		for b := range d.banks[c] {
			d.banks[c][b] = bank{openRow: -1}
		}
		d.busFree[c] = 0
	}
	d.rowHits, d.rowMisses, d.rowConf, d.bursts, d.refreshStalls = 0, 0, 0, 0, 0
	d.faultedBursts = 0
}

// afterRefresh pushes a command-issue time out of any all-bank refresh
// window: refreshes occur every TREFI cycles and block the device for TRFC.
// TRFC << TREFI, so at most one window needs skipping.
func (d *Device) afterRefresh(t int64) int64 {
	if d.timing.TREFI == 0 || t < 0 {
		return t
	}
	winStart := t / d.timing.TREFI * d.timing.TREFI
	if t < winStart+d.timing.TRFC {
		d.refreshStalls++
		return winStart + d.timing.TRFC
	}
	return t
}
