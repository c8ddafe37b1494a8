package social

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"modissense/internal/model"
	"modissense/internal/workload"
)

func testPOIs(t testing.TB) []model.POI {
	t.Helper()
	return workload.GenPOIs(rand.New(rand.NewSource(1)), 200)
}

func testConnector(t testing.TB, name string) *SimConnector {
	t.Helper()
	c, err := NewSimConnector(SimNetworkConfig{
		Name:           name,
		Seed:           42,
		Population:     1000,
		MeanFriends:    20,
		CheckinsPerDay: 2,
		POIs:           testPOIs(t),
		PositiveRate:   0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSimNetworkConfigValidate(t *testing.T) {
	base := SimNetworkConfig{Name: "x", Population: 100, MeanFriends: 10, CheckinsPerDay: 1, POIs: testPOIs(t), PositiveRate: 0.5}
	muts := []func(*SimNetworkConfig){
		func(c *SimNetworkConfig) { c.Name = "" },
		func(c *SimNetworkConfig) { c.Population = 1 },
		func(c *SimNetworkConfig) { c.MeanFriends = 0 },
		func(c *SimNetworkConfig) { c.MeanFriends = 100 },
		func(c *SimNetworkConfig) { c.POIs = nil },
		func(c *SimNetworkConfig) { c.CheckinsPerDay = 0 },
		func(c *SimNetworkConfig) { c.PositiveRate = 1.5 },
	}
	for i, mut := range muts {
		cfg := base
		mut(&cfg)
		if _, err := NewSimConnector(cfg); err == nil {
			t.Errorf("mutation %d must fail validation", i)
		}
	}
}

func TestExchange(t *testing.T) {
	c := testConnector(t, "facebook")
	id, err := c.Exchange("facebook:42")
	if err != nil || id != 42 {
		t.Errorf("Exchange = %d, %v", id, err)
	}
	if _, err := c.Exchange("twitter:42"); err == nil {
		t.Error("wrong-network credentials must fail")
	}
	if _, err := c.Exchange("facebook:99999"); err == nil {
		t.Error("out-of-population id must fail")
	}
	if _, err := c.Exchange("garbage"); err == nil {
		t.Error("garbage credentials must fail")
	}
}

func TestFriendsStableAndValid(t *testing.T) {
	c := testConnector(t, "facebook")
	f1, err := c.Friends(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) < 5 {
		t.Fatalf("friend list too small: %d", len(f1))
	}
	f2, err := c.Friends(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Error("friend lists must be stable across calls")
	}
	for _, f := range f1 {
		if f.ID == 7 {
			t.Error("friend list contains self")
		}
		if f.Network != "facebook" || f.Name == "" || f.Avatar == "" {
			t.Errorf("friend profile incomplete: %+v", f)
		}
	}
	if _, err := c.Friends(0); err == nil {
		t.Error("invalid user must fail")
	}
}

func TestUpdatesDeterministicAndWindowed(t *testing.T) {
	c := testConnector(t, "foursquare")
	day0 := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	since := model.Millis(day0)
	until := model.Millis(day0.Add(7 * 24 * time.Hour))
	u1, err := c.Updates(33, since, until)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := c.Updates(33, since, until)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u1, u2) {
		t.Error("updates must be deterministic for the same window")
	}
	if len(u1) < 5 {
		t.Errorf("a week at 2/day should produce >5 check-ins, got %d", len(u1))
	}
	for _, chk := range u1 {
		if chk.Time <= since || chk.Time > until {
			t.Fatalf("check-in time %d outside window", chk.Time)
		}
		if chk.Comment == "" || chk.POIID == 0 || chk.Network != "foursquare" {
			t.Fatalf("incomplete check-in %+v", chk)
		}
	}
	// Disjoint windows give disjoint data; union equals the full window.
	mid := model.Millis(day0.Add(3 * 24 * time.Hour))
	a, _ := c.Updates(33, since, mid)
	b, _ := c.Updates(33, mid, until)
	if len(a)+len(b) != len(u1) {
		t.Errorf("window split changed totals: %d + %d != %d", len(a), len(b), len(u1))
	}
	if _, err := c.Updates(33, until, since); err == nil {
		t.Error("inverted window must fail")
	}
}

func TestUserManagerSignInAndLink(t *testing.T) {
	fb := testConnector(t, "facebook")
	tw := testConnector(t, "twitter")
	m, err := NewUserManager(fb, tw)
	if err != nil {
		t.Fatal(err)
	}
	acct, token, err := m.SignIn("facebook", "facebook:5")
	if err != nil {
		t.Fatal(err)
	}
	if acct.UserID == 0 || token == "" {
		t.Fatalf("bad sign-in result: %+v %q", acct, token)
	}
	// Same identity → same platform account, fresh token.
	acct2, token2, err := m.SignIn("facebook", "facebook:5")
	if err != nil {
		t.Fatal(err)
	}
	if acct2.UserID != acct.UserID {
		t.Error("repeated sign-in must reuse the account")
	}
	if token2 == token {
		t.Error("tokens must be fresh per sign-in")
	}
	// Authenticate.
	uid, err := m.Authenticate(token)
	if err != nil || uid != acct.UserID {
		t.Errorf("Authenticate = %d, %v", uid, err)
	}
	if _, err := m.Authenticate("bogus"); err == nil {
		t.Error("bogus token must fail")
	}
	// Link a second network.
	linked, err := m.Link(token, "twitter", "twitter:9")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(linked.Networks(), []string{"facebook", "twitter"}) {
		t.Errorf("networks = %v", linked.Networks())
	}
	// The same twitter account cannot attach to a second platform user.
	_, token3, err := m.SignIn("facebook", "facebook:6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(token3, "twitter", "twitter:9"); err == nil {
		t.Error("cross-account link must fail")
	}
	// Unknown network.
	if _, _, err := m.SignIn("instagram", "instagram:1"); err == nil {
		t.Error("unsupported network must fail")
	}
	if _, err := m.Link(token, "instagram", "x"); err == nil {
		t.Error("unsupported network link must fail")
	}
	// Friends aggregation across networks.
	friends, err := m.Friends(acct.UserID)
	if err != nil {
		t.Fatal(err)
	}
	networks := map[string]bool{}
	for _, f := range friends {
		networks[f.Network] = true
	}
	if !networks["facebook"] || !networks["twitter"] {
		t.Errorf("friends must span both networks: %v", networks)
	}
}

func TestNewUserManagerValidation(t *testing.T) {
	if _, err := NewUserManager(); err == nil {
		t.Error("no connectors must fail")
	}
	fb := testConnector(t, "facebook")
	if _, err := NewUserManager(fb, fb); err == nil {
		t.Error("duplicate connectors must fail")
	}
	if _, err := NewUserManager(nil); err == nil {
		t.Error("nil connector must fail")
	}
}

// memSink is an in-memory Sink for collector tests.
type memSink struct {
	mu       sync.Mutex
	friends  map[int64][]model.Friend
	comments []model.Comment
	visits   []model.Visit
	batches  [][]model.Visit // one entry per StoreVisits call
}

func newMemSink() *memSink {
	return &memSink{friends: map[int64][]model.Friend{}}
}

func (s *memSink) StoreFriends(uid int64, fs []model.Friend) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.friends[uid] = fs
	return nil
}

func (s *memSink) StoreComment(c model.Comment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.comments = append(s.comments, c)
	return nil
}

func (s *memSink) StoreVisits(visits []model.Visit) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.visits = append(s.visits, visits...)
	s.batches = append(s.batches, append([]model.Visit(nil), visits...))
	return nil
}

// stubClassifier grades by marker word.
type stubClassifier struct{}

func (stubClassifier) SentimentGrade(text string) float64 {
	if strings.Contains(text, "amazing") || strings.Contains(text, "great") {
		return 4.5
	}
	return 2.0
}

// catalogResolver resolves check-ins against a fixed catalog by POI id.
type catalogResolver map[int64]model.POI

func (r catalogResolver) ResolvePOI(c model.Checkin) (model.POI, bool) {
	p, ok := r[c.POIID]
	return p, ok
}

func TestCollectorRun(t *testing.T) {
	pois := testPOIs(t)
	fb := testConnector(t, "facebook")
	tw := testConnector(t, "twitter")
	m, err := NewUserManager(fb, tw)
	if err != nil {
		t.Fatal(err)
	}
	// Register three users; one links both networks.
	_, tok1, err := m.SignIn("facebook", "facebook:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(tok1, "twitter", "twitter:1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SignIn("facebook", "facebook:2"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SignIn("twitter", "twitter:3"); err != nil {
		t.Fatal(err)
	}

	resolver := catalogResolver{}
	for _, p := range pois {
		resolver[p.ID] = p
	}
	sink := newMemSink()
	col, err := NewCollector(m, sink, stubClassifier{}, resolver, 4)
	if err != nil {
		t.Fatal(err)
	}
	day0 := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	stats, err := col.Run(model.Millis(day0), model.Millis(day0.Add(5*24*time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	if stats.UsersScanned != 3 {
		t.Errorf("scanned %d users, want 3", stats.UsersScanned)
	}
	if stats.Checkins == 0 {
		t.Error("no check-ins collected")
	}
	if stats.Checkins != len(sink.visits) || stats.Checkins != len(sink.comments) {
		t.Errorf("stats/sink mismatch: %d vs %d visits vs %d comments", stats.Checkins, len(sink.visits), len(sink.comments))
	}
	if len(sink.friends) != 3 {
		t.Errorf("friend lists for %d users, want 3", len(sink.friends))
	}
	for _, v := range sink.visits {
		if v.POI.Name == "" || v.POI.ID == 0 {
			t.Fatal("visit must embed full POI info")
		}
		if v.Grade != 4.5 && v.Grade != 2.0 {
			t.Fatalf("unexpected grade %g", v.Grade)
		}
	}
	// Deterministic re-run over the same window yields the same volume.
	sink2 := newMemSink()
	col2, _ := NewCollector(m, sink2, stubClassifier{}, resolver, 2)
	stats2, err := col2.Run(model.Millis(day0), model.Millis(day0.Add(5*24*time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Checkins != stats.Checkins {
		t.Errorf("re-run collected %d, want %d", stats2.Checkins, stats.Checkins)
	}
}

// TestCollectorStoresOneBatchPerAccount: a pass hands the sink one
// StoreVisits call per account that has visits, holding exactly that
// account's visits in check-in order (its check-ins from every linked
// network, sorted by time, unresolved venues skipped).
func TestCollectorStoresOneBatchPerAccount(t *testing.T) {
	pois := testPOIs(t)
	m, err := NewUserManager(testConnector(t, "facebook"), testConnector(t, "twitter"))
	if err != nil {
		t.Fatal(err)
	}
	_, tok1, err := m.SignIn("facebook", "facebook:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(tok1, "twitter", "twitter:1"); err != nil {
		t.Fatal(err)
	}
	for _, cred := range []string{"facebook:2", "facebook:5", "facebook:9"} {
		if _, _, err := m.SignIn("facebook", cred); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := m.SignIn("twitter", "twitter:3"); err != nil {
		t.Fatal(err)
	}
	// Every other venue is outside the catalog, so some check-ins are
	// skipped in the middle of an account's pass.
	resolver := catalogResolver{}
	for i, p := range pois {
		if i%2 == 0 {
			resolver[p.ID] = p
		}
	}
	since := model.Millis(time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC))
	until := since + 4*24*3600*1000

	want := map[int64][]model.Visit{}
	for _, acct := range m.Accounts() {
		var checkins []model.Checkin
		for _, network := range acct.Networks() {
			conn, err := m.Connector(network)
			if err != nil {
				t.Fatal(err)
			}
			u, err := conn.Updates(acct.Links[network], since, until)
			if err != nil {
				t.Fatal(err)
			}
			checkins = append(checkins, u...)
		}
		sort.Slice(checkins, func(i, j int) bool { return checkins[i].Time < checkins[j].Time })
		for _, chk := range checkins {
			if poi, ok := resolver.ResolvePOI(chk); ok {
				want[acct.UserID] = append(want[acct.UserID], model.Visit{
					UserID: acct.UserID, Time: chk.Time, Grade: stubClassifier{}.SentimentGrade(chk.Comment),
					Network: chk.Network, POI: poi,
				})
			}
		}
	}
	if len(want) < 3 {
		t.Fatalf("fixture too thin: %d accounts with visits", len(want))
	}

	sink := newMemSink()
	col, err := NewCollector(m, sink, stubClassifier{}, resolver, 3)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := col.Run(since, until)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.batches) != len(want) {
		t.Fatalf("%d StoreVisits calls, want one per account with visits (%d)", len(sink.batches), len(want))
	}
	seen := map[int64]bool{}
	total := 0
	for _, batch := range sink.batches {
		user := batch[0].UserID
		if seen[user] {
			t.Fatalf("user %d's visits arrived in more than one batch", user)
		}
		seen[user] = true
		if !reflect.DeepEqual(batch, want[user]) {
			t.Errorf("user %d: batch of %d visits differs from the %d expected in check-in order", user, len(batch), len(want[user]))
		}
		total += len(batch)
	}
	if stats.Checkins != total {
		t.Errorf("stats.Checkins = %d, want %d", stats.Checkins, total)
	}
}

func TestCollectorValidation(t *testing.T) {
	fb := testConnector(t, "facebook")
	m, _ := NewUserManager(fb)
	sink := newMemSink()
	if _, err := NewCollector(nil, sink, stubClassifier{}, catalogResolver{}, 1); err == nil {
		t.Error("nil users must fail")
	}
	if _, err := NewCollector(m, sink, stubClassifier{}, catalogResolver{}, 0); err == nil {
		t.Error("zero workers must fail")
	}
}

func TestCollectorUnresolvedVenues(t *testing.T) {
	fb := testConnector(t, "facebook")
	m, _ := NewUserManager(fb)
	if _, _, err := m.SignIn("facebook", "facebook:1"); err != nil {
		t.Fatal(err)
	}
	sink := newMemSink()
	// Empty resolver: every check-in is unresolved.
	col, err := NewCollector(m, sink, stubClassifier{}, catalogResolver{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	day0 := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	stats, err := col.Run(model.Millis(day0), model.Millis(day0.Add(3*24*time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkins != 0 || stats.Unresolved == 0 {
		t.Errorf("stats = %+v, want all unresolved", stats)
	}
	if len(sink.visits) != 0 {
		t.Error("unresolved check-ins must not be stored")
	}
}

// flakyConnector wraps a Connector and fails Updates for chosen users —
// the failure-injection harness for the collector.
type flakyConnector struct {
	Connector
	failFor map[int64]bool
}

func (f *flakyConnector) Updates(uid, since, until int64) ([]model.Checkin, error) {
	if f.failFor[uid] {
		return nil, fmt.Errorf("simulated API outage for user %d", uid)
	}
	return f.Connector.Updates(uid, since, until)
}

func TestCollectorPropagatesConnectorFailures(t *testing.T) {
	pois := testPOIs(t)
	base := testConnector(t, "facebook")
	flaky := &flakyConnector{Connector: base, failFor: map[int64]bool{2: true}}
	m, err := NewUserManager(flaky)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SignIn("facebook", "facebook:1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SignIn("facebook", "facebook:2"); err != nil {
		t.Fatal(err)
	}
	resolver := catalogResolver{}
	for _, p := range pois {
		resolver[p.ID] = p
	}
	col, err := NewCollector(m, newMemSink(), stubClassifier{}, resolver, 2)
	if err != nil {
		t.Fatal(err)
	}
	day0 := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	_, err = col.Run(model.Millis(day0), model.Millis(day0.Add(24*time.Hour)))
	if err == nil {
		t.Fatal("connector outage must surface as a collection error")
	}
	if !strings.Contains(err.Error(), "user 2") {
		t.Errorf("error should identify the failing user: %v", err)
	}
}

// failingSink errors once more than failAfter visits would be stored —
// storage-failure injection.
type failingSink struct {
	*memSink
	failAfter int
	stored    int
}

func (s *failingSink) StoreVisits(visits []model.Visit) error {
	s.stored += len(visits)
	if s.stored > s.failAfter {
		return fmt.Errorf("simulated datastore failure")
	}
	return s.memSink.StoreVisits(visits)
}

func TestCollectorPropagatesSinkFailures(t *testing.T) {
	pois := testPOIs(t)
	m, err := NewUserManager(testConnector(t, "facebook"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SignIn("facebook", "facebook:1"); err != nil {
		t.Fatal(err)
	}
	resolver := catalogResolver{}
	for _, p := range pois {
		resolver[p.ID] = p
	}
	sink := &failingSink{memSink: newMemSink(), failAfter: 1}
	col, err := NewCollector(m, sink, stubClassifier{}, resolver, 1)
	if err != nil {
		t.Fatal(err)
	}
	day0 := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	if _, err := col.Run(model.Millis(day0), model.Millis(day0.Add(5*24*time.Hour))); err == nil {
		t.Fatal("sink failure must surface as a collection error")
	}
}
