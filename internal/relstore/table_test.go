package relstore

import (
	"fmt"
	"math/rand"
	"testing"

	"modissense/internal/geo"
)

func poiSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{"id", Int},
		Column{"name", Text},
		Column{"lat", Float},
		Column{"lon", Float},
		Column{"keywords", Text},
		Column{"hotness", Float},
		Column{"interest", Float},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func poiRow(id int64, name string, lat, lon float64, keywords string, hot, interest float64) Row {
	return Row{IntVal(id), TextVal(name), FloatVal(lat), FloatVal(lon), TextVal(keywords), FloatVal(hot), FloatVal(interest)}
}

func newPOITable(t testing.TB) *Table {
	t.Helper()
	tbl, err := NewTable("pois", poiSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema must fail")
	}
	if _, err := NewSchema(Column{"id", Text}); err == nil {
		t.Error("non-Int primary key must fail")
	}
	if _, err := NewSchema(Column{"id", Int}, Column{"id", Text}); err == nil {
		t.Error("duplicate column must fail")
	}
	if _, err := NewSchema(Column{"id", Int}, Column{"", Text}); err == nil {
		t.Error("empty column name must fail")
	}
}

func TestTableInsertGetUpdate(t *testing.T) {
	tbl := newPOITable(t)
	r := poiRow(1, "acropolis", 37.97, 23.72, "museum history", 0.9, 0.8)
	if err := tbl.Insert(r); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(r); err == nil {
		t.Error("duplicate primary key must fail")
	}
	if err := tbl.Insert(Row{IntVal(2)}); err == nil {
		t.Error("arity mismatch must fail")
	}
	got, ok := tbl.Get(1)
	if !ok || got[1].S != "acropolis" {
		t.Fatalf("Get(1) = %v, %v", got, ok)
	}
	// Returned row is a copy.
	got[1] = TextVal("mutated")
	got2, _ := tbl.Get(1)
	if got2[1].S != "acropolis" {
		t.Error("Get must return a defensive copy")
	}

	upd := poiRow(1, "acropolis", 37.97, 23.72, "museum history ancient", 0.95, 0.85)
	if err := tbl.Update(upd); err != nil {
		t.Fatal(err)
	}
	got3, _ := tbl.Get(1)
	if got3[5].F != 0.95 {
		t.Errorf("hotness after update = %v", got3[5].F)
	}
	if err := tbl.Update(poiRow(99, "x", 0, 0, "", 0, 0)); err == nil {
		t.Error("update of missing row must fail")
	}
}

func TestIndexMaintainedAcrossMutations(t *testing.T) {
	tbl := newPOITable(t)
	if err := tbl.CreateIndex("hotness"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("hotness"); err == nil {
		t.Error("duplicate index must fail")
	}
	if err := tbl.CreateIndex("nope"); err == nil {
		t.Error("index on unknown column must fail")
	}
	for i := int64(0); i < 20; i++ {
		if err := tbl.Insert(poiRow(i, fmt.Sprintf("poi-%d", i), 37, 23, "bar", float64(i)/20, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Indexed range query.
	rows, info, err := tbl.Select(Query{Where: []Predicate{{Column: "hotness", Op: Ge, Arg: FloatVal(0.75)}}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Access != "index:hotness" {
		t.Errorf("access = %q, want index:hotness", info.Access)
	}
	if len(rows) != 5 {
		t.Errorf("got %d rows, want 5", len(rows))
	}
	// Update moves a row across the threshold; index must follow.
	if err := tbl.Update(poiRow(0, "poi-0", 37, 23, "bar", 0.99, 0)); err != nil {
		t.Fatal(err)
	}
	rows, _, _ = tbl.Select(Query{Where: []Predicate{{Column: "hotness", Op: Ge, Arg: FloatVal(0.75)}}})
	if len(rows) != 6 {
		t.Errorf("after update got %d rows, want 6", len(rows))
	}
}

func TestSpatialIndexQueries(t *testing.T) {
	tbl := newPOITable(t)
	rng := rand.New(rand.NewSource(5))
	n := 500
	for i := int64(0); i < int64(n); i++ {
		lat := 34.8 + rng.Float64()*7
		lon := 19.3 + rng.Float64()*9
		if err := tbl.Insert(poiRow(i, fmt.Sprintf("poi-%d", i), lat, lon, "bar", rng.Float64(), rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateSpatialIndex("lat", "lon"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateSpatialIndex("lat", "lon"); err == nil {
		t.Error("second spatial index must fail")
	}
	box := geo.Rect{MinLat: 37, MinLon: 23, MaxLat: 38.5, MaxLon: 24.5}
	rows, info, err := tbl.Select(Query{Within: &box})
	if err != nil {
		t.Fatal(err)
	}
	if info.Access != "spatial" {
		t.Errorf("access = %q, want spatial", info.Access)
	}
	// Oracle count.
	want := 0
	for i := int64(0); i < int64(n); i++ {
		r, _ := tbl.Get(i)
		if box.Contains(geo.Point{Lat: r[2].F, Lon: r[3].F}) {
			want++
		}
	}
	if len(rows) != want {
		t.Errorf("spatial select = %d rows, oracle %d", len(rows), want)
	}
	for _, r := range rows {
		if !box.Contains(geo.Point{Lat: r[2].F, Lon: r[3].F}) {
			t.Errorf("row %d outside box", r[0].I)
		}
	}
	// Move a row from inside the box to far outside; the index must follow.
	moveID := rows[0][0].I
	r0, _ := tbl.Get(moveID)
	moved := append(Row(nil), r0...)
	moved[2] = FloatVal(34.9)
	moved[3] = FloatVal(19.4)
	if err := tbl.Update(moved); err != nil {
		t.Fatal(err)
	}
	after2, _, _ := tbl.Select(Query{Within: &box})
	if len(after2) != want-1 {
		t.Errorf("after move spatial select = %d rows, want %d", len(after2), want-1)
	}
	// And it is findable at its new location.
	newBox := geo.RectAround(geo.Point{Lat: 34.9, Lon: 19.4}, 1000)
	found, _, _ := tbl.Select(Query{Within: &newBox})
	match := false
	for _, r := range found {
		if r[0].I == moveID {
			match = true
		}
	}
	if !match {
		t.Error("moved row not found at its new location")
	}
}

func TestSpatialFallbackWithoutIndex(t *testing.T) {
	tbl := newPOITable(t)
	if err := tbl.Insert(poiRow(1, "in", 37.5, 23.5, "bar", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(poiRow(2, "out", 40.0, 26.0, "bar", 0, 0)); err != nil {
		t.Fatal(err)
	}
	box := geo.Rect{MinLat: 37, MinLon: 23, MaxLat: 38, MaxLon: 24}
	rows, info, err := tbl.Select(Query{Within: &box})
	if err != nil {
		t.Fatal(err)
	}
	if info.Access != "fullscan" {
		t.Errorf("access = %q, want fullscan", info.Access)
	}
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Errorf("rows = %v", rows)
	}
}

func TestSelectPredicatesOrderingLimit(t *testing.T) {
	tbl := newPOITable(t)
	data := []struct {
		id       int64
		name     string
		keywords string
		hot      float64
	}{
		{1, "taverna-a", "restaurant greek", 0.5},
		{2, "burger-b", "restaurant fastfood", 0.9},
		{3, "museum-c", "museum history", 0.3},
		{4, "taverna-d", "restaurant greek seafood", 0.7},
		{5, "bar-e", "bar cocktails", 0.8},
	}
	for _, d := range data {
		if err := tbl.Insert(poiRow(d.id, d.name, 37.9, 23.7, d.keywords, d.hot, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Keyword + order by hotness desc + limit.
	rows, _, err := tbl.Select(Query{
		Where:   []Predicate{{Column: "keywords", Op: ContainsWord, Arg: TextVal("restaurant")}},
		OrderBy: "hotness",
		Desc:    true,
		Limit:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].I != 2 || rows[1][0].I != 4 {
		t.Errorf("top restaurants = %v", rows)
	}
	// ContainsWord must not match substrings.
	rows, _, _ = tbl.Select(Query{Where: []Predicate{{Column: "keywords", Op: ContainsWord, Arg: TextVal("rest")}}})
	if len(rows) != 0 {
		t.Errorf("substring must not match, got %d rows", len(rows))
	}
	// Equality on Text.
	rows, _, _ = tbl.Select(Query{Where: []Predicate{{Column: "name", Op: Eq, Arg: TextVal("bar-e")}}})
	if len(rows) != 1 || rows[0][0].I != 5 {
		t.Errorf("name equality = %v", rows)
	}
	// Conjunction.
	rows, _, _ = tbl.Select(Query{Where: []Predicate{
		{Column: "keywords", Op: ContainsWord, Arg: TextVal("restaurant")},
		{Column: "hotness", Op: Lt, Arg: FloatVal(0.6)},
	}})
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Errorf("conjunction = %v", rows)
	}
}

func TestSelectErrors(t *testing.T) {
	tbl := newPOITable(t)
	if _, _, err := tbl.Select(Query{Where: []Predicate{{Column: "ghost", Op: Eq, Arg: IntVal(1)}}}); err == nil {
		t.Error("unknown column must fail")
	}
	if _, _, err := tbl.Select(Query{Where: []Predicate{{Column: "hotness", Op: Eq, Arg: TextVal("x")}}}); err == nil {
		t.Error("type mismatch must fail")
	}
	if _, _, err := tbl.Select(Query{OrderBy: "ghost"}); err == nil {
		t.Error("unknown order-by column must fail")
	}
	if _, _, err := tbl.Select(Query{Where: []Predicate{{Column: "hotness", Op: ContainsWord, Arg: TextVal("x")}}}); err == nil {
		t.Error("ContainsWord on Float must fail")
	}
}

func TestSelectEqualityUsesIndex(t *testing.T) {
	tbl := newPOITable(t)
	if err := tbl.CreateIndex("name"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := tbl.Insert(poiRow(i, fmt.Sprintf("poi-%03d", i), 37, 23, "x", 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	rows, info, err := tbl.Select(Query{Where: []Predicate{{Column: "name", Op: Eq, Arg: TextVal("poi-042")}}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Access != "index:name" {
		t.Errorf("access = %q", info.Access)
	}
	if info.RowsExamined != 1 {
		t.Errorf("rows examined = %d, want 1", info.RowsExamined)
	}
	if len(rows) != 1 || rows[0][0].I != 42 {
		t.Errorf("rows = %v", rows)
	}
}

func TestDBTableManagement(t *testing.T) {
	db := NewDB()
	s := poiSchema(t)
	if _, err := db.CreateTable("pois", s); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("pois", s); err == nil {
		t.Error("duplicate table must fail")
	}
	if _, err := db.CreateTable("blogs", s); err != nil {
		t.Fatal(err)
	}
}

func TestValueCompareAndString(t *testing.T) {
	if IntVal(1).Compare(IntVal(2)) != -1 || IntVal(2).Compare(IntVal(2)) != 0 || IntVal(3).Compare(IntVal(2)) != 1 {
		t.Error("int compare broken")
	}
	if FloatVal(1.5).Compare(FloatVal(2.5)) != -1 {
		t.Error("float compare broken")
	}
	if TextVal("a").Compare(TextVal("b")) != -1 {
		t.Error("text compare broken")
	}
	if BoolVal(false).Compare(BoolVal(true)) != -1 || BoolVal(true).Compare(BoolVal(false)) != 1 || BoolVal(true).Compare(BoolVal(true)) != 0 {
		t.Error("bool compare broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("cross-type compare must panic")
		}
	}()
	IntVal(1).Compare(TextVal("x"))
}
