// Package ftl implements a page-mapped flash translation layer with greedy
// garbage collection and configurable over-provisioning on top of the zoned
// device simulator.
//
// It models the internals of a conventional (block-interface) SSD: hosts see
// a linear logical page space with in-place writes; the FTL appends
// out-of-place, tracks per-zone validity, and relocates valid pages when
// free zones run low. The relocation traffic is exactly the device-level
// write amplification (DLWA) that the Set and Kangaroo baselines pay in the
// paper (§2.2, Case 3.1 in §3.1).
package ftl

import (
	"fmt"
	"sync"
	"time"

	"nemo/internal/device"
)

// Config controls the FTL geometry and GC policy.
type Config struct {
	// OPRatio is the fraction of physical capacity reserved as
	// over-provisioning (not exposed as logical space). Must be in (0, 1).
	OPRatio float64
}

// freeZoneReserve is the free-zone count at or below which GC runs. New
// requires freeZoneReserve+2 zones and exposes neither the reserve nor the
// active zone as logical capacity.
const freeZoneReserve = 2

// Stats reports FTL-level accounting. DLWA = (HostPages+GCPages)/HostPages.
type Stats struct {
	HostPagesWritten uint64 // pages written on behalf of the host
	GCPagesWritten   uint64 // pages relocated by garbage collection
	GCPagesRead      uint64
	GCRuns           uint64
	ZoneErases       uint64
}

// DLWA returns the device-level write amplification so far (1.0 when no
// host writes have occurred).
func (s Stats) DLWA() float64 {
	if s.HostPagesWritten == 0 {
		return 1
	}
	return float64(s.HostPagesWritten+s.GCPagesWritten) / float64(s.HostPagesWritten)
}

// FTL is a page-mapped translation layer over a contiguous zone range of a
// device. It is safe for concurrent use.
type FTL struct {
	dev       device.Device
	zoneBase  int // first device zone owned by this FTL
	zoneCount int

	mu        sync.Mutex
	l2p       []int // logical page -> global device page (-1 unmapped)
	p2l       []int // local physical page index -> logical page (-1 invalid)
	validCnt  []int // per local zone
	freeZones []int // local zone indices, LIFO
	active    int   // local zone currently receiving appends (-1 none)
	stats     Stats
	scratch   []byte
}

// New creates an FTL over device zones [zoneBase, zoneBase+zoneCount).
// The logical capacity is floor(zoneCount*pagesPerZone*(1-OPRatio)) pages.
func New(dev device.Device, zoneBase, zoneCount int, cfg Config) (*FTL, error) {
	if cfg.OPRatio <= 0 || cfg.OPRatio >= 1 {
		return nil, fmt.Errorf("ftl: OPRatio %v out of range (0,1)", cfg.OPRatio)
	}
	if zoneBase < 0 || zoneBase+zoneCount > dev.Zones() || zoneCount < freeZoneReserve+2 {
		return nil, fmt.Errorf("ftl: zone range [%d,%d) invalid for device with %d zones (reserve %d)",
			zoneBase, zoneBase+zoneCount, dev.Zones(), freeZoneReserve)
	}
	physPages := zoneCount * dev.PagesPerZone()
	logical := int(float64(physPages) * (1 - cfg.OPRatio))
	maxLogical := (zoneCount - freeZoneReserve - 1) * dev.PagesPerZone()
	if logical > maxLogical {
		logical = maxLogical
	}
	if logical <= 0 {
		return nil, fmt.Errorf("ftl: configuration leaves no logical capacity")
	}
	f := &FTL{
		dev:       dev,
		zoneBase:  zoneBase,
		zoneCount: zoneCount,
		l2p:       make([]int, logical),
		p2l:       make([]int, physPages),
		validCnt:  make([]int, zoneCount),
		active:    -1,
		scratch:   make([]byte, dev.PageSize()),
	}
	for i := range f.l2p {
		f.l2p[i] = -1
	}
	for i := range f.p2l {
		f.p2l[i] = -1
	}
	for z := zoneCount - 1; z >= 0; z-- {
		f.freeZones = append(f.freeZones, z)
	}
	return f, nil
}

// LogicalPages returns the number of logical pages exposed to the host.
func (f *FTL) LogicalPages() int { return len(f.l2p) }

// Stats returns a snapshot of the FTL counters.
func (f *FTL) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// localPage converts a global device page to this FTL's local physical index.
func (f *FTL) localPage(devPage int) int {
	return devPage - f.zoneBase*f.dev.PagesPerZone()
}

func (f *FTL) devZone(local int) int { return f.zoneBase + local }

// Write stores data at logical page lpn (out-of-place) and returns the
// virtual completion time of the final flash operation involved, including
// any garbage collection it triggered.
func (f *FTL) Write(lpn int, data []byte) (done time.Duration, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if lpn < 0 || lpn >= len(f.l2p) {
		return 0, fmt.Errorf("ftl: logical page %d out of range [0,%d)", lpn, len(f.l2p))
	}
	done, devPage, err := f.appendLocked(data, &f.stats.HostPagesWritten)
	if err != nil {
		return 0, err
	}
	f.invalidateLocked(lpn)
	f.l2p[lpn] = devPage
	f.p2l[f.localPage(devPage)] = lpn
	f.validCnt[f.localPage(devPage)/f.dev.PagesPerZone()]++
	return done, nil
}

// Read copies the logical page into dst. mapped is false (and dst is zero
// filled) when the page was never written or was trimmed.
func (f *FTL) Read(lpn int, dst []byte) (done time.Duration, mapped bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if lpn < 0 || lpn >= len(f.l2p) {
		return 0, false, fmt.Errorf("ftl: logical page %d out of range [0,%d)", lpn, len(f.l2p))
	}
	devPage := f.l2p[lpn]
	if devPage < 0 {
		for i := range dst {
			dst[i] = 0
		}
		return f.dev.Clock().Now(), false, nil
	}
	done, err = f.dev.ReadPage(devPage, dst)
	return done, true, err
}

func (f *FTL) invalidateLocked(lpn int) {
	devPage := f.l2p[lpn]
	if devPage < 0 {
		return
	}
	local := f.localPage(devPage)
	f.p2l[local] = -1
	f.validCnt[local/f.dev.PagesPerZone()]--
	f.l2p[lpn] = -1
}

// appendLocked writes one page of data to the active zone, running GC first
// when free zones are scarce. counter selects which write counter to credit.
// GC may leave a partially filled active zone behind; it is reused rather
// than abandoned (abandoning it would leak zones until no full GC victims
// remain).
func (f *FTL) appendLocked(data []byte, counter *uint64) (time.Duration, int, error) {
	ppz := f.dev.PagesPerZone()
	if f.active < 0 || f.dev.ZoneWP(f.devZone(f.active)) >= ppz {
		f.active = -1
		if len(f.freeZones) <= freeZoneReserve {
			if err := f.gcLocked(); err != nil {
				return 0, 0, err
			}
		}
	}
	if f.active < 0 || f.dev.ZoneWP(f.devZone(f.active)) >= ppz {
		if len(f.freeZones) == 0 {
			return 0, 0, fmt.Errorf("ftl: no free zones after GC")
		}
		f.active = f.freeZones[len(f.freeZones)-1]
		f.freeZones = f.freeZones[:len(f.freeZones)-1]
	}
	devPage, done, err := f.dev.AppendPage(f.devZone(f.active), data)
	if err != nil {
		return 0, 0, err
	}
	*counter++
	return done, devPage, nil
}

// gcLocked reclaims zones until the free pool exceeds the reserve, using
// greedy minimum-valid victim selection among full, inactive zones.
func (f *FTL) gcLocked() error {
	ppz := f.dev.PagesPerZone()
	iterations := 0
	for len(f.freeZones) <= freeZoneReserve {
		iterations++
		if iterations > 4*f.zoneCount {
			var valid, full int
			for z := 0; z < f.zoneCount; z++ {
				valid += f.validCnt[z]
				if f.dev.ZoneWP(f.devZone(z)) >= ppz {
					full++
				}
			}
			return fmt.Errorf("ftl: gc made no progress after %d iterations (free=%d valid=%d/%d full=%d logical=%d)",
				iterations, len(f.freeZones), valid, f.zoneCount*ppz, full, len(f.l2p))
		}
		victim := -1
		best := ppz + 1
		for z := 0; z < f.zoneCount; z++ {
			if z == f.active || f.dev.ZoneWP(f.devZone(z)) < ppz {
				continue
			}
			if f.validCnt[z] < best {
				best = f.validCnt[z]
				victim = z
			}
		}
		if victim < 0 {
			return fmt.Errorf("ftl: gc found no victim (all zones open or free)")
		}
		f.stats.GCRuns++
		base := victim * ppz
		for off := 0; off < ppz; off++ {
			lpn := f.p2l[base+off]
			if lpn < 0 {
				continue
			}
			if _, err := f.dev.ReadPage(f.devZone(victim)*ppz+off, f.scratch); err != nil {
				return err
			}
			f.stats.GCPagesRead++
			// Relocate into the active zone; the victim is excluded from
			// allocation until reset so relocation cannot target it.
			f.p2l[base+off] = -1
			f.validCnt[victim]--
			_, devPage, err := f.appendRelocate(f.scratch)
			if err != nil {
				return err
			}
			f.l2p[lpn] = devPage
			f.p2l[f.localPage(devPage)] = lpn
			f.validCnt[f.localPage(devPage)/ppz]++
		}
		if _, err := f.dev.ResetZone(f.devZone(victim)); err != nil {
			return err
		}
		f.stats.ZoneErases++
		f.freeZones = append(f.freeZones, victim)
	}
	return nil
}

// appendRelocate appends a relocated page, opening free zones directly
// (GC is exempt from the reserve check to avoid recursion; the reserve
// guarantees headroom for exactly this).
func (f *FTL) appendRelocate(data []byte) (time.Duration, int, error) {
	ppz := f.dev.PagesPerZone()
	if f.active < 0 || f.dev.ZoneWP(f.devZone(f.active)) >= ppz {
		if len(f.freeZones) == 0 {
			return 0, 0, fmt.Errorf("ftl: relocation found no free zone")
		}
		f.active = f.freeZones[len(f.freeZones)-1]
		f.freeZones = f.freeZones[:len(f.freeZones)-1]
	}
	devPage, done, err := f.dev.AppendPage(f.devZone(f.active), data)
	if err != nil {
		return 0, 0, err
	}
	f.stats.GCPagesWritten++
	return done, devPage, nil
}
