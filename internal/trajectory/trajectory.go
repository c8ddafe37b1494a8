// Package trajectory implements the semantic-trajectory substrate of the
// platform: stay-point detection over raw GPS traces, matching of stay
// points to known POIs, and the semi-automatic daily-blog generation the
// paper demonstrates ("a timestamped sequence of POIs summarizing user's
// activity during the day").
package trajectory

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"modissense/internal/geo"
)

// Fix is one GPS sample.
type Fix struct {
	Pt geo.Point
	At time.Time
}

// StayPoint is a detected dwell: the user remained within DistThreshold of
// a spot for at least MinDuration.
type StayPoint struct {
	Center    geo.Point
	Arrival   time.Time
	Departure time.Time
	// Fixes is the number of GPS samples contributing to the stay.
	Fixes int
}

// DetectStayPoints runs the classic stay-point detection algorithm (Li et
// al., 2008) over a time-ordered trace: a maximal run of fixes that stays
// within distThresholdMeters of its first fix and spans at least minDuration
// becomes a stay point at the run's centroid.
func DetectStayPoints(trace []Fix, distThresholdMeters float64, minDuration time.Duration) ([]StayPoint, error) {
	if distThresholdMeters <= 0 {
		return nil, fmt.Errorf("trajectory: distance threshold must be positive, got %g", distThresholdMeters)
	}
	if minDuration <= 0 {
		return nil, fmt.Errorf("trajectory: minimum duration must be positive, got %v", minDuration)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].At.Before(trace[i-1].At) {
			return nil, fmt.Errorf("trajectory: trace not time-ordered at index %d", i)
		}
	}
	var stays []StayPoint
	i := 0
	for i < len(trace) {
		j := i + 1
		for j < len(trace) && geo.Haversine(trace[i].Pt, trace[j].Pt) <= distThresholdMeters {
			j++
		}
		// Fixes i..j-1 stay within the threshold of fix i.
		if trace[j-1].At.Sub(trace[i].At) >= minDuration {
			var lat, lon float64
			for k := i; k < j; k++ {
				lat += trace[k].Pt.Lat
				lon += trace[k].Pt.Lon
			}
			n := float64(j - i)
			stays = append(stays, StayPoint{
				Center:    geo.Point{Lat: lat / n, Lon: lon / n},
				Arrival:   trace[i].At,
				Departure: trace[j-1].At,
				Fixes:     j - i,
			})
			i = j
			continue
		}
		i++
	}
	return stays, nil
}

// POIRef is the minimal POI view the matcher needs.
type POIRef struct {
	ID   int64
	Name string
	Pt   geo.Point
}

// Visit is one stay point resolved against the POI catalog. Matched is
// false for stays with no POI within the matching radius; such entries
// appear in the blog as unnamed places the user may annotate manually
// (the paper's "semi-automatic" aspect).
type Visit struct {
	Stay    StayPoint
	POI     POIRef
	Matched bool
	// Comment is user- or platform-provided annotation text.
	Comment string
}

// MatchPOIs resolves every stay point to its nearest POI within
// maxDistMeters. POIs are indexed with an R-tree so the matcher scales to
// large catalogs.
func MatchPOIs(stays []StayPoint, pois []POIRef, maxDistMeters float64) ([]Visit, error) {
	if maxDistMeters <= 0 {
		return nil, fmt.Errorf("trajectory: matching radius must be positive, got %g", maxDistMeters)
	}
	tree, err := geo.NewRTree(16)
	if err != nil {
		return nil, err
	}
	byID := make(map[int64]POIRef, len(pois))
	for _, p := range pois {
		tree.InsertPoint(p.ID, p.Pt)
		byID[p.ID] = p
	}
	visits := make([]Visit, 0, len(stays))
	var buf []int64
	for _, s := range stays {
		v := Visit{Stay: s}
		buf = tree.Search(buf[:0], geo.RectAround(s.Center, maxDistMeters))
		bestDist := maxDistMeters
		for _, id := range buf {
			p := byID[id]
			if d := geo.Haversine(s.Center, p.Pt); d <= bestDist {
				bestDist = d
				v.POI = p
				v.Matched = true
			}
		}
		visits = append(visits, v)
	}
	return visits, nil
}

// Blog is a user's daily semantic trajectory rendered as an editable
// document. Entries stay ordered by arrival time unless the user reorders
// them explicitly.
type Blog struct {
	UserID  int64
	Date    time.Time // midnight of the blog's day, UTC
	Title   string
	Entries []Visit
}

// BuildBlog assembles a blog from visits, sorted by arrival.
func BuildBlog(userID int64, date time.Time, visits []Visit) *Blog {
	entries := append([]Visit(nil), visits...)
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].Stay.Arrival.Before(entries[j].Stay.Arrival)
	})
	return &Blog{
		UserID:  userID,
		Date:    time.Date(date.Year(), date.Month(), date.Day(), 0, 0, 0, 0, time.UTC),
		Title:   fmt.Sprintf("My day on %s", date.Format("2006-01-02")),
		Entries: entries,
	}
}

// Render produces the shareable text form of the blog (the paper's demo
// posts this to Facebook or Twitter).
func (b *Blog) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n\n", b.Title)
	if len(b.Entries) == 0 {
		sb.WriteString("No activity recorded.\n")
		return sb.String()
	}
	for i, e := range b.Entries {
		name := e.POI.Name
		if !e.Matched {
			name = fmt.Sprintf("an unnamed place at %s", e.Stay.Center)
		}
		fmt.Fprintf(&sb, "%d. %s–%s: %s", i+1,
			e.Stay.Arrival.Format("15:04"), e.Stay.Departure.Format("15:04"), name)
		if e.Comment != "" {
			fmt.Fprintf(&sb, " — %s", e.Comment)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
