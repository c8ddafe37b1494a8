// Package model defines the platform's shared domain types: POIs, users,
// visits, check-ins, comments and GPS traces. Every repository, processing
// module and workload generator speaks these types, keeping the packages
// free of import cycles.
package model

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"modissense/internal/geo"
)

// POI is a point of interest: the central catalog entity. The POI
// repository hands its stored document out by value without copying
// Keywords, so a POI read from the catalog shares that slice with every
// other reader and must not be modified in place.
type POI struct {
	ID       int64    `json:"id"`
	Name     string   `json:"name"`
	Lat      float64  `json:"lat"`
	Lon      float64  `json:"lon"`
	Keywords []string `json:"keywords"`
	// Hotness is the crowd-concentration metric maintained by the HotIn
	// module (visit volume in the current window, normalized).
	Hotness float64 `json:"hotness"`
	// Interest is the aggregated opinion metric (mean sentiment grade of
	// visits in the current window).
	Interest float64 `json:"interest"`
}

// Point returns the POI location.
func (p *POI) Point() geo.Point { return geo.Point{Lat: p.Lat, Lon: p.Lon} }

// User is a registered platform user.
type User struct {
	ID   int64  `json:"id"`
	Name string `json:"name"`
	// Networks lists the social networks linked to the account.
	Networks []string `json:"networks"`
}

// Friend is one social-network connection of a user: the compressed
// (id, name, avatar) triple the Social Info repository stores.
type Friend struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	Network string `json:"network"`
	Avatar  string `json:"avatar"`
}

// Visit is one social friend's recorded POI visit. Mirroring the paper's
// replicated schema, the struct embeds the complete POI information so a
// coprocessor can answer queries from visit rows alone.
type Visit struct {
	UserID int64 `json:"user_id"`
	// Time is the visit timestamp in milliseconds since epoch.
	Time int64 `json:"time"`
	// Grade is the sentiment classification grade of the visit's comment,
	// on the 1–5 scale.
	Grade   float64 `json:"grade"`
	Network string  `json:"network"`
	// POI carries the full replicated POI info.
	POI POI `json:"poi"`
}

const gradeUnit = 1 << 20 // grade-sum units per grade point, a power of two

// GradeUnits converts a grade to the int64 units every grade sum is kept in,
// rounding it to a multiple of 2⁻²⁰ (whole and binary-fraction grades convert
// exactly). Integer sums are the same in any order; at most 5·2²⁰ units per
// visit leave a sum room for about 1.7·10¹² visits.
func GradeUnits(g float64) int64 { return int64(math.Round(g * gradeUnit)) }

// MeanGrade is the mean grade of visits whose grades sum to units, the one
// place a grade sum is divided. For whole grades it is bit-identical to the
// float64 sum of the grades divided by the visit count.
func MeanGrade(units int64, visits int) float64 { return float64(units) / gradeUnit / float64(visits) }

// Checkin is a raw social-network check-in collected by the Data
// Collection module before processing.
type Checkin struct {
	UserID  int64   `json:"user_id"`
	POIID   int64   `json:"poi_id"`
	POIName string  `json:"poi_name"`
	Lat     float64 `json:"lat"`
	Lon     float64 `json:"lon"`
	Time    int64   `json:"time"`
	Comment string  `json:"comment"`
	Network string  `json:"network"`
}

// Comment is a processed textual opinion stored in the Text repository.
type Comment struct {
	UserID int64   `json:"user_id"`
	POIID  int64   `json:"poi_id"`
	Time   int64   `json:"time"`
	Text   string  `json:"text"`
	Grade  float64 `json:"grade"`
}

// GPSFix is one raw trace sample pushed by a mobile device.
type GPSFix struct {
	UserID int64   `json:"user_id"`
	Lat    float64 `json:"lat"`
	Lon    float64 `json:"lon"`
	Time   int64   `json:"time"`
}

// Point returns the fix location.
func (f *GPSFix) Point() geo.Point { return geo.Point{Lat: f.Lat, Lon: f.Lon} }

// Millis converts a time.Time to the platform's millisecond timestamps.
func Millis(t time.Time) int64 { return t.UnixMilli() }

// FromMillis converts a millisecond timestamp back to time.Time (UTC).
func FromMillis(ms int64) time.Time { return time.UnixMilli(ms).UTC() }

// EncodeJSON marshals v for storage in the KV repositories. It panics only
// on programmer errors (unmarshalable types), which the domain types above
// cannot trigger.
func EncodeJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("model: marshal %T: %v", v, err))
	}
	return b
}

// DecodeJSON unmarshals stored bytes into v.
func DecodeJSON(b []byte, v interface{}) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("model: unmarshal %T: %w", v, err)
	}
	return nil
}
