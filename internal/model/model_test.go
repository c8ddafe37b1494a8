package model

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestMillisRoundTrip(t *testing.T) {
	ts := time.Date(2015, 5, 31, 12, 34, 56, 789_000_000, time.UTC)
	ms := Millis(ts)
	back := FromMillis(ms)
	if !back.Equal(ts) {
		t.Errorf("round trip: %v -> %d -> %v", ts, ms, back)
	}
	if back.Location() != time.UTC {
		t.Error("FromMillis must return UTC")
	}
}

func TestEncodeDecodeJSONRoundTrips(t *testing.T) {
	poi := POI{ID: 7, Name: "taverna", Lat: 37.9, Lon: 23.7, Keywords: []string{"greek", "food"}, Hotness: 0.5, Interest: 0.8}
	visit := Visit{UserID: 3, Time: 123456, Grade: 4.5, Network: "facebook", POI: poi}
	comment := Comment{UserID: 3, POIID: 7, Time: 123, Text: "great", Grade: 4.4}
	fix := GPSFix{UserID: 3, Lat: 37.9, Lon: 23.7, Time: 99}
	friend := Friend{ID: 2, Name: "bob", Network: "twitter", Avatar: "url"}
	user := User{ID: 1, Name: "alice", Networks: []string{"facebook"}}
	checkin := Checkin{UserID: 1, POIID: 7, POIName: "taverna", Lat: 37.9, Lon: 23.7, Time: 5, Comment: "hi", Network: "facebook"}

	cases := []struct {
		in  interface{}
		out interface{}
	}{
		{poi, &POI{}},
		{visit, &Visit{}},
		{comment, &Comment{}},
		{fix, &GPSFix{}},
		{friend, &Friend{}},
		{user, &User{}},
		{checkin, &Checkin{}},
	}
	for _, c := range cases {
		raw := EncodeJSON(c.in)
		if err := DecodeJSON(raw, c.out); err != nil {
			t.Fatalf("decode %T: %v", c.in, err)
		}
		got := reflect.ValueOf(c.out).Elem().Interface()
		if !reflect.DeepEqual(got, c.in) {
			t.Errorf("round trip %T: got %+v want %+v", c.in, got, c.in)
		}
	}
}

func TestDecodeJSONError(t *testing.T) {
	var p POI
	if err := DecodeJSON([]byte("{broken"), &p); err == nil {
		t.Error("broken JSON must fail")
	}
}

func TestPOIHelpers(t *testing.T) {
	p := POI{Lat: 37.9, Lon: 23.7, Keywords: []string{"a", "b"}}
	if pt := p.Point(); pt.Lat != 37.9 || pt.Lon != 23.7 {
		t.Errorf("Point = %v", pt)
	}
}

func TestGPSFixPoint(t *testing.T) {
	f := GPSFix{Lat: 1, Lon: 2}
	if pt := f.Point(); pt.Lat != 1 || pt.Lon != 2 {
		t.Errorf("Point = %v", pt)
	}
}

// TestGradeSumsOrderIndependent is the property every grade sum rests on:
// grades added as GradeUnits give the same sum, and so the same MeanGrade,
// in any order — which float64 sums of fractional grades do not — and for
// whole grades MeanGrade is exactly the integer sum over the visit count.
func TestGradeSumsOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	floatOrderMattered := false
	for trial := 0; trial < 20; trial++ {
		grades := make([]float64, 1+rng.Intn(300))
		for i := range grades {
			grades[i] = 5 * rng.Float64()
		}
		grades = append(grades, 0, 5, 0x1p-20) // the boundaries ride along
		var firstUnits int64
		var firstFloat float64
		for order := 0; order < 50; order++ {
			rng.Shuffle(len(grades), func(i, j int) { grades[i], grades[j] = grades[j], grades[i] })
			var units int64
			var sum float64
			for _, g := range grades {
				units += GradeUnits(g)
				sum += g
			}
			if order == 0 {
				firstUnits, firstFloat = units, sum
				continue
			}
			if units != firstUnits || MeanGrade(units, len(grades)) != MeanGrade(firstUnits, len(grades)) {
				t.Fatalf("trial %d order %d: %d units (mean %v), first order %d (mean %v)", trial, order,
					units, MeanGrade(units, len(grades)), firstUnits, MeanGrade(firstUnits, len(grades)))
			}
			floatOrderMattered = floatOrderMattered || sum != firstFloat
		}
	}
	if !floatOrderMattered {
		t.Error("no shuffle moved a float64 sum: the property is vacuous")
	}

	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		var units int64
		var sum int
		for i := 0; i < n; i++ {
			g := rng.Intn(6) // 0..5
			units += GradeUnits(float64(g))
			sum += g
		}
		if got, want := MeanGrade(units, n), float64(sum)/float64(n); got != want {
			t.Fatalf("%d whole grades summing to %d: mean %v, want %v", n, sum, got, want)
		}
	}

	for _, c := range []struct {
		grade float64
		units int64
	}{{0, 0}, {5, 5 << 20}, {0x1p-20, 1}, {3.5, 7 << 19}} {
		if got := GradeUnits(c.grade); got != c.units {
			t.Errorf("GradeUnits(%v) = %d, want %d", c.grade, got, c.units)
		}
		if got := MeanGrade(c.units, 1); got != c.grade {
			t.Errorf("MeanGrade(%d, 1) = %v, want %v", c.units, got, c.grade)
		}
	}
}
