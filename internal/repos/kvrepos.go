package repos

import (
	"context"
	"fmt"
	"sync/atomic"

	"modissense/internal/kvstore"
	"modissense/internal/model"
)

// SocialInfoRepo holds each user's per-network friend lists as one row per
// user with one qualifier per network (a compressed id/name/avatar list).
type SocialInfoRepo struct {
	table *kvstore.Table
	clock atomic.Int64
}

// NewSocialInfoRepo creates the repository.
func NewSocialInfoRepo(maxUser int64, regions, nodes int, opts kvstore.StoreOptions) (*SocialInfoRepo, error) {
	table, err := kvstore.NewTable("socialinfo", userSplitKeys(maxUser, regions), nodes, opts)
	if err != nil {
		return nil, err
	}
	return &SocialInfoRepo{table: table}, nil
}

// StoreFriends persists a user's aggregated friend list, bucketed by
// network (implements the collector Sink contract together with the other
// repos via repos.Sink).
func (r *SocialInfoRepo) StoreFriends(userID int64, friends []model.Friend) error {
	if userID < 1 {
		return fmt.Errorf("repos: invalid user %d", userID)
	}
	byNetwork := map[string][]model.Friend{}
	for _, f := range friends {
		byNetwork[f.Network] = append(byNetwork[f.Network], f)
	}
	ts := r.clock.Add(1)
	for network, fs := range byNetwork {
		if err := r.table.Put(socialRowKey(userID), network, ts, model.EncodeJSON(fs)); err != nil {
			return err
		}
	}
	return nil
}

// TextRepo stores every collected comment, keyed (poi, user, time) so the
// canonical lookup — "the comments a specified user made about a POI in a
// time interval" — is a single range scan.
type TextRepo struct {
	table *kvstore.Table
}

// NewTextRepo creates the repository. Text rows lead with the POI id, so
// the table is split into `regions` uniform key ranges over the id space.
func NewTextRepo(maxPOI int64, regions, nodes int, opts kvstore.StoreOptions) (*TextRepo, error) {
	var splits []string
	if regions > 1 {
		for i := 1; i < regions; i++ {
			splits = append(splits, fmt.Sprintf("p%012d|", maxPOI*int64(i)/int64(regions)))
		}
	}
	table, err := kvstore.NewTable("texts", splits, nodes, opts)
	if err != nil {
		return nil, err
	}
	return &TextRepo{table: table}, nil
}

// StoreComment persists one classified comment.
func (r *TextRepo) StoreComment(c model.Comment) error {
	if c.POIID < 1 || c.UserID < 1 {
		return fmt.Errorf("repos: comment missing poi/user: %+v", c)
	}
	return r.table.Put(textRowKey(c.POIID, c.UserID, c.Time), "c", c.Time, model.EncodeJSON(c))
}

// Comments returns the comments of one user about one POI in
// [fromMillis, toMillis], oldest first.
func (r *TextRepo) Comments(poiID, userID, fromMillis, toMillis int64) ([]model.Comment, error) {
	start, stop := textScanBounds(poiID, userID, fromMillis, toMillis)
	var out []model.Comment
	var decodeErr error
	err := r.table.Scan(kvstore.ScanOptions{StartRow: start, StopRow: stop}, func(row kvstore.RowResult) bool {
		raw, ok := row.Get("c")
		if !ok {
			return true
		}
		var c model.Comment
		if decodeErr = model.DecodeJSON(raw, &c); decodeErr != nil {
			return false
		}
		out = append(out, c)
		return true
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	return out, err
}

// GPSRepo stores raw GPS traces. The repository absorbs a high update rate
// and is only ever read in bulk by the event-detection and blog pipelines,
// so it carries no secondary indexes — exactly the trade the paper makes.
type GPSRepo struct {
	table *kvstore.Table
	seq   atomic.Uint32
}

// NewGPSRepo creates the repository.
func NewGPSRepo(maxUser int64, regions, nodes int, opts kvstore.StoreOptions) (*GPSRepo, error) {
	table, err := kvstore.NewTable("gpstraces", userSplitKeys(maxUser, regions), nodes, opts)
	if err != nil {
		return nil, err
	}
	return &GPSRepo{table: table}, nil
}

// PushBatch appends many fixes through one table PutBatch. Validation runs
// up front: an invalid fix fails the call before anything is written.
func (r *GPSRepo) PushBatch(fixes []model.GPSFix) error {
	cells := make([]kvstore.Cell, len(fixes))
	for i, f := range fixes {
		if f.UserID < 1 {
			return fmt.Errorf("repos: gps fix %d with invalid user %d", i, f.UserID)
		}
		cells[i] = kvstore.Cell{Row: gpsRowKey(f.UserID, f.Time, r.seq.Add(1)), Qualifier: "g", Timestamp: f.Time, Value: model.EncodeJSON(f)}
	}
	return r.table.PutBatch(cells)
}

// ScanAll streams every stored fix (the event-detection input).
func (r *GPSRepo) ScanAll(fn func(model.GPSFix) bool) error {
	return r.ScanAllCtx(context.Background(), fn)
}

// ScanAllCtx is ScanAll with row-granular cancellation: it returns ctx's
// error as soon as the context is done, even mid-region.
func (r *GPSRepo) ScanAllCtx(ctx context.Context, fn func(model.GPSFix) bool) error {
	return r.scanRange(ctx, "", "", fn)
}

// ScanUser streams one user's fixes within [fromMillis, toMillis] in time
// order (the blog pipeline's input).
func (r *GPSRepo) ScanUser(userID, fromMillis, toMillis int64, fn func(model.GPSFix) bool) error {
	start := fmt.Sprintf("u%012d|t%013d|", userID, fromMillis)
	stop := fmt.Sprintf("u%012d|t%013d|", userID, toMillis+1)
	return r.scanRange(context.Background(), start, stop, fn)
}

func (r *GPSRepo) scanRange(ctx context.Context, start, stop string, fn func(model.GPSFix) bool) error {
	var decodeErr error
	err := r.table.ScanCtx(ctx, kvstore.ScanOptions{StartRow: start, StopRow: stop}, func(row kvstore.RowResult) bool {
		raw, ok := row.Get("g")
		if !ok {
			return true
		}
		var f model.GPSFix
		if decodeErr = model.DecodeJSON(raw, &f); decodeErr != nil {
			return false
		}
		return fn(f)
	})
	if decodeErr != nil {
		return decodeErr
	}
	return err
}

// Len returns the number of stored fixes (scan-counted; used by tests and
// admin stats, not hot paths).
func (r *GPSRepo) Len() (int, error) {
	n := 0
	err := r.ScanAll(func(model.GPSFix) bool { n++; return true })
	return n, err
}
