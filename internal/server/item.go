package server

import (
	"encoding/binary"
	"hash/fnv"
)

// The engine stores opaque byte values with no metadata sidecar, while the
// memcached protocol round-trips a 32-bit flags word per item and permits
// empty data blocks (which the engine reserves for deletion tombstones).
// The serving layer bridges both with a 4-byte item envelope: the stored
// value is the big-endian flags word followed by the client data. An empty
// data block therefore stores as a 4-byte value the engine happily admits,
// and flags survive eviction-and-writeback for free because they live
// inside the object.

// itemOverhead is the envelope size prepended to every stored value; the
// connection handler writes it in place ahead of the data it reads (conn.go).
const itemOverhead = 4

// decodeItem splits a stored value back into (flags, data). Values shorter
// than the envelope cannot have been written by this serving layer; they
// decode as ok=false and the caller reports a miss rather than fabricating
// framing for bytes it does not understand.
func decodeItem(value []byte) (flags uint32, data []byte, ok bool) {
	if len(value) < itemOverhead {
		return 0, nil, false
	}
	return binary.BigEndian.Uint32(value[:itemOverhead]), value[itemOverhead:], true
}

// casToken derives the `gets` cas token: an FNV-1a fingerprint of the
// stored value (envelope included). The engine keeps no per-object version
// counter, so the token is a content fingerprint — equal values share a
// token — which is exactly what a cas-style "did it change under me" probe
// needs. The `cas` verb itself is not implemented.
func casToken(value []byte) uint64 {
	h := fnv.New64a()
	h.Write(value)
	return h.Sum64()
}
