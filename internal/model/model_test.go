package model

import (
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
