package hlog

import (
	"fmt"
	"time"

	"nemo/internal/cachelib"
	"nemo/internal/device"
	"nemo/internal/metrics"
	"nemo/internal/setblock"
)

// Front is the Log as the front tier of a hierarchical cache: what Kangaroo
// and FairyWREN do identically before their different set tiers take over.
// Like the Log it has no lock — the owning engine's mutex covers every call
// — and it accounts into the Stats and Histogram that engine hands over.
type Front struct {
	*Log
	st   *cachelib.Stats
	hist *metrics.Histogram
}

// SplitZones divides dev's zone range [zoneBase, zoneBase+zones) (zones 0:
// to the last zone) into a log over the first logRatio of it, at least two
// zones, and a set tier over the rest, at least four.
func SplitZones(dev device.Device, zoneBase, zones int, logRatio float64) (logZones, setZones int, err error) {
	if zones == 0 {
		zones = dev.Zones() - zoneBase
	}
	if zoneBase < 0 || zones < 1 || zoneBase+zones > dev.Zones() {
		return 0, 0, fmt.Errorf("hlog: invalid zone range base=%d zones=%d", zoneBase, zones)
	}
	logZones = max(2, int(logRatio*float64(zones)))
	if zones-logZones < 4 {
		return 0, 0, fmt.Errorf("hlog: zone range too small for a log and a set tier (%d zones)", zones)
	}
	return logZones, zones - logZones, nil
}

// NewFront creates a front whose log covers device zones [zoneBase,
// zoneBase+zones), accounting into st and hist.
func NewFront(dev device.Device, zoneBase, zones int, st *cachelib.Stats, hist *metrics.Histogram) (*Front, error) {
	log, err := New(dev, zoneBase, zones)
	if err != nil {
		return nil, err
	}
	return &Front{Log: log, st: st, hist: hist}, nil
}

// Migrate moves all of one set's log objects (never none) into the engine's
// set tier; passive migration (Case 2) calls it once per set.
type Migrate func(set int32, objs []setblock.Entry) error

// Set appends the object for set to the log; whenever the log is full it
// drains the oldest zone through migrate and retries. An object that could
// never fit a set page is rejected before it enters the log.
func (f *Front) Set(set int32, fp uint64, key, value []byte, migrate Migrate) error {
	if len(key)+len(value) > setblock.MaxObjectBytes(f.pageSize) || len(key) > 255 {
		return fmt.Errorf("hlog: object of %d bytes exceeds set size %d", setblock.EntrySize(len(key), len(value)), f.pageSize)
	}
	for {
		err := f.Append(set, fp, key, value)
		if err == nil {
			break
		}
		if err != ErrFull {
			return err
		}
		if err := f.drainOldestZone(migrate); err != nil {
			return err
		}
	}
	f.st.Sets++
	f.st.LogicalBytes += uint64(len(key) + len(value))
	return nil
}

// drainOldestZone is passive migration: each set with live objects in the
// oldest log zone has all its log objects, from any zone, migrated together;
// then the zone is released and what it still held is counted as evicted.
func (f *Front) drainOldestZone(migrate Migrate) error {
	for _, set := range f.OldestZoneSets() {
		objs, err := f.TakeSet(set)
		if err != nil {
			return err
		}
		if len(objs) == 0 {
			continue
		}
		if err := migrate(set, objs); err != nil {
			return err
		}
	}
	dropped, err := f.ReleaseOldestZone()
	f.st.Evictions += uint64(dropped)
	return err
}

// Get counts one GET and answers it from the log if the log holds the key:
// a hit, one flash read if the entry has left the page buffer, the GET's
// latency (1 µs floor). A key the log does not hold is setTier's to answer,
// from the same start. If the log holds the key but cannot read its page,
// the GET is a miss counted in ReadErrors and setTier is not asked: the
// log's copy is the newest, the set tier's may be older.
func (f *Front) Get(set int32, fp uint64, key []byte, setTier func(start time.Duration) ([]byte, bool)) ([]byte, bool) {
	f.st.Gets++
	start := f.dev.Clock().Now()
	v, done, ok, err := f.Lookup(set, fp, key)
	if err != nil {
		f.st.ReadErrors++
		f.hist.Record(time.Microsecond)
		return nil, false
	}
	if !ok {
		return setTier(start)
	}
	f.st.Hits++
	latency := time.Microsecond
	if done > 0 { // the entry was read from flash, not the page buffer
		f.st.FlashReadOps++
		f.st.FlashBytesRead += uint64(f.pageSize)
		latency += done - start
	}
	f.hist.Record(latency)
	return v, true
}
