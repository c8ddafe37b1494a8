package repos

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"modissense/internal/geo"
	"modissense/internal/model"
)

// POIRepo is the POI repository: all non-personalized POI information,
// keyed by POI id. It serves heavy random-access read loads with low
// insert/update rates — the role the paper gives PostgreSQL, which it uses
// only as an indexed random-access store.
type POIRepo struct {
	mu     sync.RWMutex
	pois   map[int64]model.POI
	nextID int64 // last auto-assigned id above the reserved range start
}

// NewPOIRepo creates an empty repository.
func NewPOIRepo() *POIRepo {
	return &POIRepo{pois: make(map[int64]model.POI)}
}

// Insert adds a POI. A zero ID is auto-assigned from a reserved high range
// (above 10⁹) so user- and event-created POIs never collide with catalog
// ids; inserting an id already present fails. The repository keeps its own
// copy of the keyword list, so the caller may reuse p; the stored POI is
// returned.
func (r *POIRepo) Insert(p model.POI) (model.POI, error) {
	if len(p.Keywords) == 0 {
		p.Keywords = nil
	} else {
		p.Keywords = slices.Clip(slices.Clone(p.Keywords))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p.ID == 0 {
		r.nextID++
		p.ID = 1_000_000_000 + r.nextID
	}
	if _, dup := r.pois[p.ID]; dup {
		return model.POI{}, fmt.Errorf("repos: duplicate POI id %d", p.ID)
	}
	r.pois[p.ID] = p
	return p, nil
}

// Get fetches one POI by id. It does not copy: the returned Keywords slice
// is the stored one, shared with every other reader, and must be treated
// as read-only (its capacity equals its length, so an append reallocates).
func (r *POIRepo) Get(id int64) (model.POI, bool) {
	r.mu.RLock()
	p, ok := r.pois[id]
	r.mu.RUnlock()
	return p, ok
}

// Len returns the catalog size.
func (r *POIRepo) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.pois)
}

// UpdateHotIn sets the hotness and interest metrics of one POI (the HotIn
// Update module's write path).
func (r *POIRepo) UpdateHotIn(id int64, hotness, interest float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.pois[id]
	if !ok {
		return fmt.Errorf("repos: no POI %d", id)
	}
	p.Hotness, p.Interest = hotness, interest
	r.pois[id] = p
	return nil
}

// All returns the full catalog in id order (the event-detection filter and
// the blog generator's POI matcher read it). As with Get, the keyword
// slices are the stored ones and read-only.
func (r *POIRepo) All() []model.POI {
	r.mu.RLock()
	out := make([]model.POI, 0, len(r.pois))
	for _, p := range r.pois {
		out = append(out, p)
	}
	r.mu.RUnlock()
	slices.SortFunc(out, func(a, b model.POI) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// ResolvePOI implements the collector's POIResolver against the catalog.
func (r *POIRepo) ResolvePOI(c model.Checkin) (model.POI, bool) {
	return r.Get(c.POIID)
}

// CategoryStat is one POI-category row of the analytics view.
type CategoryStat struct {
	Category    string  `json:"category"`
	POIs        int     `json:"pois"`
	AvgHotness  float64 `json:"avg_hotness"`
	MaxHotness  float64 `json:"max_hotness"`
	AvgInterest float64 `json:"avg_interest"`
}

// CategoryStats aggregates the catalog per leading keyword (the POI's
// category; "uncategorized" when it has none): counts and hotness/interest
// statistics, optionally restricted to a bounding box. It sums in id order,
// so repeated calls over the same catalog return the same means.
func (r *POIRepo) CategoryStats(bbox *geo.Rect) []CategoryStat {
	all := r.All()
	byCat := map[string]*CategoryStat{}
	for i := range all {
		p := &all[i]
		if bbox != nil && !bbox.Contains(p.Point()) {
			continue
		}
		cat := "uncategorized"
		if len(p.Keywords) > 0 {
			cat = p.Keywords[0]
		}
		s := byCat[cat]
		if s == nil {
			s = &CategoryStat{Category: cat, MaxHotness: p.Hotness}
			byCat[cat] = s
		}
		s.POIs++
		s.AvgHotness += p.Hotness // a sum until the division below
		s.AvgInterest += p.Interest
		s.MaxHotness = max(s.MaxHotness, p.Hotness)
	}
	out := make([]CategoryStat, 0, len(byCat))
	for _, s := range byCat {
		s.AvgHotness /= float64(s.POIs)
		s.AvgInterest /= float64(s.POIs)
		out = append(out, *s)
	}
	slices.SortFunc(out, func(a, b CategoryStat) int { return cmp.Compare(a.Category, b.Category) })
	return out
}
