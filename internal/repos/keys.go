// Package repos implements the platform's datastore repositories (§2.1 of
// the paper): POI and Blogs as keyed in-memory maps (the paper's PostgreSQL
// serves them by key only), Social-Info, Text, Visits and GPS-Traces on the
// NoSQL store. It owns the row-key encodings that make range scans line up
// with the access patterns each repository serves.
package repos

import (
	"fmt"
	"strconv"
	"strings"
)

// Row-key encoding: fixed-width zero-padded decimal fields joined by '|'
// so that lexicographic order equals numeric order. Visits and GPS rows
// lead with the user id, clustering each user's history into a contiguous
// key range — the property the per-region coprocessor gets exploit.

// putPadded writes v as a fixed-width zero-padded decimal into dst. It
// requires 0 <= v < 10^len(dst); callers fall back to fmt for values
// outside that window (negative timestamps in hand-built specs).
func putPadded(dst []byte, v int64) bool {
	if v < 0 {
		return false
	}
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
	return v == 0
}

// userKeyPrefix returns the key prefix of all rows of one user: the
// pre-split boundaries of user-keyed tables.
func userKeyPrefix(userID int64) string {
	var b [14]byte
	b[0], b[13] = 'u', '|'
	if !putPadded(b[1:13], userID) {
		return fmt.Sprintf("u%012d|", userID)
	}
	return string(b[:])
}

// visitRowKey builds a Visits row key: user, time, then a sequence number
// to keep same-millisecond visits distinct. The sequence takes six digits,
// zero-padded, up to 999 999 and as many as it needs (at most ten) beyond:
// it only has to be unique, so keys written before a repository's millionth
// visit keep their bytes and later ones stay off the fmt path.
func visitRowKey(userID, timeMillis int64, seq uint32) string {
	var b [39]byte
	b[0], b[13], b[14], b[28] = 'u', '|', 't', '|'
	end := 35
	for limit := int64(1000000); int64(seq) >= limit; limit *= 10 {
		end++
	}
	if !putPadded(b[1:13], userID) || !putPadded(b[15:28], timeMillis) || !putPadded(b[29:end], int64(seq)) {
		return fmt.Sprintf("u%012d|t%013d|%06d", userID, timeMillis, seq)
	}
	return string(b[:end])
}

// visitTimeKey builds the "u<user>|t<time>|" prefix that bounds one user's
// visits at one timestamp.
func visitTimeKey(userID, timeMillis int64) string {
	var b [29]byte
	b[0], b[13], b[14], b[28] = 'u', '|', 't', '|'
	if !putPadded(b[1:13], userID) || !putPadded(b[15:28], timeMillis) {
		return fmt.Sprintf("u%012d|t%013d|", userID, timeMillis)
	}
	return string(b[:])
}

// VisitScanBounds returns the [start, stop) row range covering one user's
// visits within [fromMillis, toMillis]. Exported for the region-local scans
// the query coprocessors perform — built without fmt, since the coprocessor
// constructs one range per friend per region on the query hot path.
func VisitScanBounds(userID, fromMillis, toMillis int64) (string, string) {
	return visitTimeKey(userID, fromMillis), visitTimeKey(userID, toMillis+1)
}

// visitKeySeq reads just the sequence number off a Visits row key.
func visitKeySeq(key string) (uint32, bool) {
	s, err := strconv.ParseUint(key[strings.LastIndexByte(key, '|')+1:], 10, 32)
	return uint32(s), err == nil
}

// parseVisitRowKey decodes a Visits row key: every key visitRowKey writes,
// at its fixed widths and at the wider ones of its fmt fallback (a user of
// 10^12 or more, a time of 10^13 or more or negative). Under the replicated
// schema the key is the only copy of a visit's user and time, so the two
// must invert. It allocates only when it fails.
func parseVisitRowKey(key string) (userID, timeMillis int64, seq uint32, err error) {
	user, rest, ok1 := strings.Cut(key, "|")
	tm, sq, ok2 := strings.Cut(rest, "|")
	if !ok1 || !ok2 || len(user) < 13 || user[0] != 'u' || len(tm) < 14 || tm[0] != 't' || len(sq) < 6 || len(sq) > 10 {
		return 0, 0, 0, fmt.Errorf("repos: malformed visit key %q", key)
	}
	userID, err1 := strconv.ParseInt(user[1:], 10, 64)
	timeMillis, err2 := strconv.ParseInt(tm[1:], 10, 64)
	s, err3 := strconv.ParseUint(sq, 10, 32)
	if err1 != nil || err2 != nil || err3 != nil || userID < 1 {
		return 0, 0, 0, fmt.Errorf("repos: malformed visit key %q", key)
	}
	return userID, timeMillis, uint32(s), nil
}

// textRowKey builds a Text row key: POI, user, time — "texts are indexed
// by user, POI and time; for any given POI we are able to retrieve the
// comments that a specified user made at any given time interval".
func textRowKey(poiID, userID, timeMillis int64) string {
	return fmt.Sprintf("p%012d|u%012d|t%013d", poiID, userID, timeMillis)
}

// textScanBounds covers (poi, user) comments within [from, to].
func textScanBounds(poiID, userID, fromMillis, toMillis int64) (string, string) {
	return fmt.Sprintf("p%012d|u%012d|t%013d", poiID, userID, fromMillis),
		fmt.Sprintf("p%012d|u%012d|t%013d", poiID, userID, toMillis+1)
}

// gpsRowKey builds a GPS-trace row key: user then time. The repository is
// scan-only (no secondary indexes), matching the paper's design note.
func gpsRowKey(userID, timeMillis int64, seq uint32) string {
	return fmt.Sprintf("u%012d|t%013d|%06d", userID, timeMillis, seq)
}

// socialRowKey is the Social-Info row for one user.
func socialRowKey(userID int64) string {
	return fmt.Sprintf("u%012d", userID)
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
		keys = append(keys, userKeyPrefix(boundary))
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
