// Package repos implements the platform's datastore repositories (§2.1 of
// the paper): POI and Blogs as keyed in-memory maps (the paper's PostgreSQL
// serves them by key only), Social-Info, Text, Visits and GPS-Traces on the
// NoSQL store. It owns the row-key encodings that make range scans line up
// with the access patterns each repository serves.
package repos

import (
	"encoding/binary"
	"math"
)

// Row-key encoding: fixed-width big-endian fields, as HBase row keys are
// conventionally written, so that byte order is numeric order. Each table
// holds one key shape, so keys carry no separators. Visits and GPS rows lead
// with the user id, clustering each user's history into a contiguous key
// range — the property the per-region coprocessor gets exploit.

// visitKeyLen is the length of a Visits or GPS row key: user, time, seq.
const visitKeyLen = 8 + 8 + 4

// appendField appends one key field, the eight big-endian bytes of v.
func appendField(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// flipSign maps a time onto a field's unsigned order and back: with the sign
// bit flipped, math.MinInt64 sorts first and math.MaxInt64 last.
const flipSign = 1 << 63

// idKey is a key of one id field: the Social-Info row of a user and the
// pre-split boundaries of user- and POI-keyed tables.
func idKey(id int64) string {
	var b [8]byte
	return string(appendField(b[:0], uint64(id)))
}

// appendUserTime appends the 16-byte prefix of one user's rows at one time.
func appendUserTime(dst []byte, userID, t int64) []byte {
	return appendField(appendField(dst, uint64(userID)), uint64(t)^flipSign)
}

// visitRowKey builds a Visits or GPS row key: user, time, then a sequence
// number to keep same-millisecond rows distinct.
func visitRowKey(userID, timeMillis int64, seq uint32) string {
	var b [visitKeyLen]byte
	return string(binary.BigEndian.AppendUint32(appendUserTime(b[:0], userID, timeMillis), seq))
}

// VisitScanBounds returns the [start, stop) row range covering one user's
// visits within [fromMillis, toMillis]; GPS rows share the key shape. The
// query coprocessors write the same bounds with AppendVisitScanStart and
// AppendVisitScanStop.
func VisitScanBounds(userID, fromMillis, toMillis int64) (string, string) {
	var buf [32]byte
	b := AppendVisitScanStart(buf[:0], userID, fromMillis)
	at := len(b)
	b = AppendVisitScanStop(b, userID, toMillis)
	return string(b[:at]), string(b[at:])
}

// AppendVisitScanStart appends VisitScanBounds' start to dst: the bound of
// the user's visits at or after fromMillis. It allocates nothing once dst
// has room, which is how a region scan writes each friend's range just
// before it seeks to it.
func AppendVisitScanStart(dst []byte, userID, fromMillis int64) []byte {
	return appendUserTime(dst, userID, fromMillis)
}

// AppendVisitScanStop appends VisitScanBounds' stop to dst: the bound past
// the user's visits at or before toMillis — the next user's prefix when no
// time follows toMillis.
func AppendVisitScanStop(dst []byte, userID, toMillis int64) []byte {
	if toMillis == math.MaxInt64 {
		return appendField(dst, uint64(userID)+1)
	}
	return appendUserTime(dst, userID, toMillis+1)
}

// parseVisitRowKey decodes a Visits row key. Under the replicated schema
// the key is the only copy of a visit's user and time, so the two must
// invert. ok is false for a key of any other length.
func parseVisitRowKey(key string) (userID, timeMillis int64, seq uint32, ok bool) {
	if len(key) != visitKeyLen {
		return 0, 0, 0, false
	}
	b := []byte(key) // does not escape: copied to the stack
	return int64(binary.BigEndian.Uint64(b)), int64(binary.BigEndian.Uint64(b[8:]) ^ flipSign),
		binary.BigEndian.Uint32(b[16:]), true
}

// textRowKey builds a Text row key: POI, user, time — "texts are indexed
// by user, POI and time; for any given POI we are able to retrieve the
// comments that a specified user made at any given time interval".
func textRowKey(poiID, userID, timeMillis int64) string {
	var b [24]byte
	return string(appendUserTime(appendField(b[:0], uint64(poiID)), userID, timeMillis))
}

// textScanBounds covers (poi, user) comments within [from, to]: the visit
// bounds of the user, behind the POI.
func textScanBounds(poiID, userID, fromMillis, toMillis int64) (string, string) {
	var b [48]byte
	start := AppendVisitScanStart(appendField(b[:0], uint64(poiID)), userID, fromMillis)
	stop := AppendVisitScanStop(appendField(start, uint64(poiID)), userID, toMillis)
	return string(start), string(stop[len(start):])
}

// userSplitKeys pre-splits a user-keyed table into n contiguous user-id
// ranges over [1, maxUser], giving every region an equal share of users.
func userSplitKeys(maxUser int64, n int) []string {
	if n <= 1 {
		return nil
	}
	keys := make([]string, 0, n-1)
	for i := 1; i < n; i++ {
		boundary := maxUser * int64(i) / int64(n)
		if boundary < 1 {
			boundary = 1
		}
		keys = append(keys, idKey(boundary))
	}
	// Deduplicate (tiny maxUser with many regions).
	out := keys[:0]
	var prev string
	for _, k := range keys {
		if k != prev {
			out = append(out, k)
		}
		prev = k
	}
	return out
}
