package repos

import (
	"fmt"
	"sort"
	"sync/atomic"

	"modissense/internal/geo"
	"modissense/internal/model"
	"modissense/internal/relstore"
)

// POIRepo is the POI repository: all non-personalized POI information,
// hosted on the relational store with a B-tree index on hotness and a
// spatial index on (lat, lon). It serves heavy random-access read loads
// with low insert/update rates, which is why the paper places it in
// PostgreSQL.
type POIRepo struct {
	table  *relstore.Table
	nextID atomic.Int64
}

const (
	poiColID = iota
	poiColName
	poiColLat
	poiColLon
	poiColKeywords
	poiColHotness
	poiColInterest
)

// NewPOIRepo creates the repository with its schema and indexes.
func NewPOIRepo(db *relstore.DB) (*POIRepo, error) {
	schema, err := relstore.NewSchema(
		relstore.Column{Name: "id", Type: relstore.Int},
		relstore.Column{Name: "name", Type: relstore.Text},
		relstore.Column{Name: "lat", Type: relstore.Float},
		relstore.Column{Name: "lon", Type: relstore.Float},
		relstore.Column{Name: "keywords", Type: relstore.Text},
		relstore.Column{Name: "hotness", Type: relstore.Float},
		relstore.Column{Name: "interest", Type: relstore.Float},
	)
	if err != nil {
		return nil, err
	}
	table, err := db.CreateTable("pois", schema)
	if err != nil {
		return nil, err
	}
	if err := table.CreateIndex("hotness"); err != nil {
		return nil, err
	}
	if err := table.CreateIndex("name"); err != nil {
		return nil, err
	}
	if err := table.CreateSpatialIndex("lat", "lon"); err != nil {
		return nil, err
	}
	return &POIRepo{table: table}, nil
}

func poiToRow(p model.POI) relstore.Row {
	return relstore.Row{
		relstore.IntVal(p.ID),
		relstore.TextVal(p.Name),
		relstore.FloatVal(p.Lat),
		relstore.FloatVal(p.Lon),
		relstore.TextVal(p.KeywordString()),
		relstore.FloatVal(p.Hotness),
		relstore.FloatVal(p.Interest),
	}
}

func rowToPOI(r relstore.Row) model.POI {
	p := model.POI{
		ID:       r[poiColID].I,
		Name:     r[poiColName].S,
		Lat:      r[poiColLat].F,
		Lon:      r[poiColLon].F,
		Hotness:  r[poiColHotness].F,
		Interest: r[poiColInterest].F,
	}
	if r[poiColKeywords].S != "" {
		p.Keywords = splitWords(r[poiColKeywords].S)
	}
	return p
}

func splitWords(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}

// Insert adds a POI. A zero ID is auto-assigned from a reserved high range
// (above 10⁹) so user- and event-created POIs never collide with catalog
// ids; the stored POI is returned.
func (r *POIRepo) Insert(p model.POI) (model.POI, error) {
	if p.ID == 0 {
		p.ID = 1_000_000_000 + r.nextID.Add(1)
	}
	if err := r.table.Insert(poiToRow(p)); err != nil {
		return model.POI{}, err
	}
	return p, nil
}

// Get fetches one POI by id.
func (r *POIRepo) Get(id int64) (model.POI, bool) {
	row, ok := r.table.Get(id)
	if !ok {
		return model.POI{}, false
	}
	return rowToPOI(row), true
}

// Len returns the catalog size.
func (r *POIRepo) Len() int { return r.table.Len() }

// UpdateHotIn sets the hotness and interest metrics of one POI (the HotIn
// Update module's write path).
func (r *POIRepo) UpdateHotIn(id int64, hotness, interest float64) error {
	row, ok := r.table.Get(id)
	if !ok {
		return fmt.Errorf("repos: no POI %d", id)
	}
	row[poiColHotness] = relstore.FloatVal(hotness)
	row[poiColInterest] = relstore.FloatVal(interest)
	return r.table.Update(row)
}

// All streams the full catalog in id order (used to bootstrap connectors
// and the event-detection filter).
func (r *POIRepo) All() ([]model.POI, error) {
	rows, _, err := r.table.Select(relstore.Query{})
	if err != nil {
		return nil, err
	}
	out := make([]model.POI, len(rows))
	for i, row := range rows {
		out[i] = rowToPOI(row)
	}
	return out, nil
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
// category): counts and hotness/interest statistics, optionally restricted
// to a bounding box.
func (r *POIRepo) CategoryStats(bbox *geo.Rect) ([]CategoryStat, error) {
	// Group on the name prefix? The category is the first keyword; the
	// keywords column stores "category extra...", so grouping needs a
	// derived value. The relational store groups on stored columns only,
	// so group on the full keyword string and fold prefixes here.
	rows, err := r.table.GroupBy(relstore.Query{Within: bbox}, "keywords", []relstore.Aggregation{
		{Func: relstore.Count},
		{Func: relstore.Avg, Column: "hotness"},
		{Func: relstore.Max, Column: "hotness"},
		{Func: relstore.Avg, Column: "interest"},
	})
	if err != nil {
		return nil, err
	}
	byCat := map[string]*CategoryStat{}
	for _, g := range rows {
		words := splitWords(g.Key.S)
		cat := "uncategorized"
		if len(words) > 0 {
			cat = words[0]
		}
		s := byCat[cat]
		if s == nil {
			s = &CategoryStat{Category: cat}
			byCat[cat] = s
		}
		n := int(g.Values[0])
		// Merge weighted averages across keyword-string groups.
		total := float64(s.POIs + n)
		s.AvgHotness = (s.AvgHotness*float64(s.POIs) + g.Values[1]*float64(n)) / total
		s.AvgInterest = (s.AvgInterest*float64(s.POIs) + g.Values[3]*float64(n)) / total
		if g.Values[2] > s.MaxHotness {
			s.MaxHotness = g.Values[2]
		}
		s.POIs += n
	}
	out := make([]CategoryStat, 0, len(byCat))
	for _, s := range byCat {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Category < out[j].Category })
	return out, nil
}
