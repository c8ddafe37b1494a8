package core

import (
	"fmt"
	"net/http"
	"strconv"
)

// listPage is the uniform list envelope: every paginated list endpoint
// answers {"items": [...], "next_cursor": "..."}, with next_cursor absent
// on the final page. List resources always use it; the bare-array /friends
// endpoint switches to it only when the caller passes ?limit= or ?cursor=,
// so old clients keep decoding.
type listPage struct {
	Items      interface{} `json:"items"`
	NextCursor string      `json:"next_cursor,omitempty"`
}

// maxPageLimit caps one page of any list endpoint.
const maxPageLimit = 1000

// pageParams is a parsed ?limit=/?cursor= pair. offset is the decoded
// cursor position; explicit reports whether the caller asked for
// pagination at all.
type pageParams struct {
	limit    int
	offset   int
	explicit bool
}

// parsePageParams reads ?limit= and ?cursor= from the request. Invalid
// values (non-integer, limit < 1 or > maxPageLimit, malformed cursor) are
// a bad_request error.
func parsePageParams(r *http.Request) (pageParams, error) {
	q := r.URL.Query()
	pp := pageParams{limit: maxPageLimit}
	if l := q.Get("limit"); l != "" {
		v, err := strconv.Atoi(l)
		if err != nil || v < 1 || v > maxPageLimit {
			return pp, fmt.Errorf("core: invalid limit %q (want 1..%d)", l, maxPageLimit)
		}
		pp.limit = v
		pp.explicit = true
	}
	if c := q.Get("cursor"); c != "" {
		v, err := strconv.ParseInt(c, 10, 64)
		if err != nil || v < 0 {
			return pp, fmt.Errorf("core: invalid cursor %q", c)
		}
		pp.offset = int(v)
		pp.explicit = true
	}
	return pp, nil
}

// pageSlice cuts one page out of items per the params and returns it with
// the next cursor ("" when the listing is complete). Cursors are opaque to
// clients; here they encode the absolute offset into the stable listing.
func pageSlice[T any](items []T, pp pageParams) ([]T, string) {
	if pp.offset >= len(items) {
		return []T{}, ""
	}
	end := pp.offset + pp.limit
	if end >= len(items) {
		return items[pp.offset:], ""
	}
	return items[pp.offset:end], strconv.Itoa(end)
}

// writePage emits the uniform list envelope for one page.
func writePage[T any](w http.ResponseWriter, items []T, pp pageParams) {
	page, next := pageSlice(items, pp)
	writeJSON(w, http.StatusOK, listPage{Items: page, NextCursor: next})
}
