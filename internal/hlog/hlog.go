// Package hlog implements the hierarchical cache front tier ("HLog" in the
// paper, §2.3): a FIFO log over flash zones with an in-memory hash table of
// per-set linked lists, so that all buffered objects mapping to one back-tier
// set can be migrated together.
//
// Composition: Log is the data structure — zones, page buffer, per-set
// index. Front (front.go) is the Log as an engine's front tier: the
// append-or-migrate Set loop, passive migration's drain, and the log-first
// Get with its accounting. It serves three engines. The hierarchical
// baselines (Kangaroo, FairyWREN) differ only in how their back tier
// consumes it (Case 3.1 independent GC vs Case 3.2 GC folded into
// migration). The log-structured baseline (internal/logcache) is a Front
// with no back tier: its sets are fingerprints, so the per-set lists are an
// exact index, a full log releases its oldest zone instead of migrating it,
// and Remove is its delete. No engine's Front has a lock or counters: the
// owning engine holds the mutex covering the Front and the cachelib.Stats
// and histogram it accounts into.
package hlog

import (
	"fmt"
	"time"

	"nemo/internal/device"
	"nemo/internal/setblock"
)

// entry locates one live object. page == -1 means the object is still in
// the open page buffer at offset off.
type entry struct {
	fp   uint64
	page int32
	off  int32
}

type zoneObj struct {
	fp  uint64
	set int32
}

// Stats counts log activity.
type Stats struct {
	PagesWritten uint64
	LiveObjects  int
}

// Log is the front-tier log. Not safe for concurrent use; the owning engine
// serializes access.
type Log struct {
	dev      device.Device
	zoneBase int
	zones    int
	pageSize int

	index   map[int32][]entry // set -> live objects, oldest first
	perZone [][]zoneObj
	ring    []int // local zones in fill order, oldest first
	free    []int
	open    int // local zone receiving pages, -1 when none

	buf     []byte
	bufObjs []entry // offsets into buf, parallel bookkeeping for flush
	bufSet  []int32

	scratch []byte
	stats   Stats
}

// New creates a log over device zones [zoneBase, zoneBase+zones).
func New(dev device.Device, zoneBase, zones int) (*Log, error) {
	if zones < 2 || zoneBase < 0 || zoneBase+zones > dev.Zones() {
		return nil, fmt.Errorf("hlog: invalid zone range base=%d zones=%d", zoneBase, zones)
	}
	l := &Log{
		dev:      dev,
		zoneBase: zoneBase,
		zones:    zones,
		pageSize: dev.PageSize(),
		index:    make(map[int32][]entry),
		perZone:  make([][]zoneObj, zones),
		open:     -1,
		buf:      make([]byte, 0, dev.PageSize()),
		scratch:  make([]byte, dev.PageSize()),
	}
	for z := zones - 1; z >= 0; z-- {
		l.free = append(l.free, z)
	}
	return l, nil
}

// Stats returns a snapshot of the counters.
func (l *Log) Stats() Stats {
	s := l.stats
	n := 0
	for _, es := range l.index {
		n += len(es)
	}
	s.LiveObjects = n
	return s
}

// PageCapacity returns the log capacity in pages.
func (l *Log) PageCapacity() int { return l.zones * l.dev.PagesPerZone() }

// ErrFull is returned by Append when the log has no room; the caller must
// migrate the oldest zone and retry (Front.Set is that loop).
var ErrFull = fmt.Errorf("hlog: log full")

// Append buffers the object for set. Objects larger than a page are
// rejected outright.
func (l *Log) Append(set int32, fp uint64, key, value []byte) error {
	need := setblock.EntrySize(len(key), len(value))
	if need > l.pageSize {
		return fmt.Errorf("hlog: object of %d bytes exceeds page size", need)
	}
	if need > l.pageSize-len(l.buf) {
		if err := l.flushPage(); err != nil {
			return err
		}
	}
	off := int32(len(l.buf))
	l.buf = setblock.AppendEntry(l.buf, fp, key, value)
	l.Remove(set, fp)
	l.index[set] = append(l.index[set], entry{fp: fp, page: -1, off: off})
	l.bufObjs = append(l.bufObjs, entry{fp: fp, page: -1, off: off})
	l.bufSet = append(l.bufSet, set)
	return nil
}

// Remove drops the live entry for fp from set's list, if there is one. Its
// bytes stay where they are: a buffered entry is not indexed when its page
// flushes, and a flushed one is not counted as dropped when its zone is
// released.
func (l *Log) Remove(set int32, fp uint64) {
	es := l.index[set]
	for i, e := range es {
		if e.fp == fp {
			l.index[set] = append(es[:i], es[i+1:]...)
			return
		}
	}
}

// flushPage writes the open buffer as one log page.
func (l *Log) flushPage() error {
	if len(l.buf) == 0 {
		return nil
	}
	if err := l.ensureOpenZone(); err != nil {
		return err
	}
	devZone := l.zoneBase + l.open
	page, _, err := l.dev.AppendPage(devZone, l.buf)
	if err != nil {
		return err
	}
	l.stats.PagesWritten++
	for i, bo := range l.bufObjs {
		set := l.bufSet[i]
		es := l.index[set]
		for j := range es {
			if es[j].fp == bo.fp && es[j].page == -1 && es[j].off == bo.off {
				es[j].page = int32(page)
				l.perZone[l.open] = append(l.perZone[l.open], zoneObj{fp: bo.fp, set: set})
				break
			}
		}
	}
	l.buf = l.buf[:0]
	l.bufObjs = l.bufObjs[:0]
	l.bufSet = l.bufSet[:0]
	if l.dev.ZoneWP(devZone) >= l.dev.PagesPerZone() {
		l.open = -1
	}
	return nil
}

func (l *Log) ensureOpenZone() error {
	if l.open >= 0 {
		return nil
	}
	if len(l.free) == 0 {
		return ErrFull
	}
	l.open = l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	l.ring = append(l.ring, l.open)
	return nil
}

// OldestZoneSets returns the distinct sets with live objects in the oldest
// zone, in first-appearance order. Empty when the log has no sealed zones.
func (l *Log) OldestZoneSets() []int32 {
	if len(l.ring) == 0 {
		return nil
	}
	z := l.ring[0]
	seen := make(map[int32]bool)
	var sets []int32
	lo, hi := l.zoneRange(z)
	for _, zo := range l.perZone[z] {
		if seen[zo.set] {
			continue
		}
		if l.liveIn(zo.set, zo.fp, lo, hi) {
			seen[zo.set] = true
			sets = append(sets, zo.set)
		}
	}
	return sets
}

func (l *Log) zoneRange(local int) (lo, hi int32) {
	lo = int32((l.zoneBase + local) * l.dev.PagesPerZone())
	return lo, lo + int32(l.dev.PagesPerZone())
}

func (l *Log) liveIn(set int32, fp uint64, lo, hi int32) bool {
	for _, e := range l.index[set] {
		if e.fp == fp && e.page >= lo && e.page < hi {
			return true
		}
	}
	return false
}

// TakeSet removes and returns every live object of the set, reading log
// pages as needed (the "flush all objects from a HLog linked list" step of
// migration). Returned objects own their byte slices.
func (l *Log) TakeSet(set int32) ([]setblock.Entry, error) {
	es := l.index[set]
	if len(es) == 0 {
		return nil, nil
	}
	delete(l.index, set)
	objs := make([]setblock.Entry, 0, len(es))
	lastPage := int32(-2)
	for _, e := range es {
		var src []byte
		if e.page == -1 {
			src = l.buf
		} else {
			if e.page != lastPage {
				if _, err := l.dev.ReadPage(int(e.page), l.scratch); err != nil {
					return nil, err
				}
				lastPage = e.page
			}
			src = l.scratch
		}
		obj, _, ok := setblock.DecodeEntry(src, int(e.off))
		if !ok || obj.FP != e.fp {
			return nil, fmt.Errorf("hlog: corrupt log entry for set %d", set)
		}
		objs = append(objs, setblock.Entry{
			FP:    obj.FP,
			Key:   append([]byte(nil), obj.Key...),
			Value: append([]byte(nil), obj.Value...),
		})
	}
	return objs, nil
}

// ReleaseOldestZone drops any remaining live objects in the oldest zone and
// resets it (migration callers TakeSet first; leftovers are evicted).
// It returns the number of objects dropped.
func (l *Log) ReleaseOldestZone() (dropped int, err error) {
	if len(l.ring) == 0 {
		return 0, fmt.Errorf("hlog: no zone to release")
	}
	z := l.ring[0]
	l.ring = l.ring[1:]
	lo, hi := l.zoneRange(z)
	for _, zo := range l.perZone[z] {
		es := l.index[zo.set]
		for i := 0; i < len(es); {
			if es[i].fp == zo.fp && es[i].page >= lo && es[i].page < hi {
				es = append(es[:i], es[i+1:]...)
				dropped++
			} else {
				i++
			}
		}
		if len(es) == 0 {
			delete(l.index, zo.set)
		} else {
			l.index[zo.set] = es
		}
	}
	l.perZone[z] = l.perZone[z][:0]
	if _, err := l.dev.ResetZone(l.zoneBase + z); err != nil {
		return dropped, err
	}
	l.free = append(l.free, z)
	return dropped, nil
}

// Lookup finds a live object, reading its log page when necessary. done is
// the flash completion time (zero for buffer hits).
func (l *Log) Lookup(set int32, fp uint64, key []byte) (value []byte, done time.Duration, ok bool, err error) {
	es := l.index[set]
	for i := len(es) - 1; i >= 0; i-- {
		e := es[i]
		if e.fp != fp {
			continue
		}
		var src []byte
		if e.page == -1 {
			src = l.buf
		} else {
			d, err := l.dev.ReadPage(int(e.page), l.scratch)
			if err != nil {
				return nil, 0, false, err
			}
			done = d
			src = l.scratch
		}
		got, _, decoded := setblock.DecodeEntry(src, int(e.off))
		if !decoded || got.FP != fp || string(got.Key) != string(key) {
			return nil, done, false, nil
		}
		return append([]byte(nil), got.Value...), done, true, nil
	}
	return nil, 0, false, nil
}
