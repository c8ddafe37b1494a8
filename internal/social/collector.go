package social

import (
	"fmt"
	"sort"
	"sync"

	"modissense/internal/model"
)

// Sink receives the collector's output. The repositories package provides
// the production implementation; tests use in-memory fakes.
type Sink interface {
	// StoreFriends persists a user's aggregated friend list.
	StoreFriends(userID int64, friends []model.Friend) error
	// StoreComment persists one classified comment.
	StoreComment(c model.Comment) error
	// StoreVisits persists one account's visits of a pass, in check-in
	// order (already enriched with POI info and sentiment grade).
	StoreVisits(visits []model.Visit) error
}

// Classifier grades comment text; the Text Processing module's Naive Bayes
// classifier satisfies it.
type Classifier interface {
	// SentimentGrade maps text to the platform's 1–5 grade scale.
	SentimentGrade(text string) float64
}

// POIResolver maps a check-in's venue to the platform's POI catalog,
// returning the full POI record (the replicated-schema payload).
type POIResolver interface {
	ResolvePOI(c model.Checkin) (model.POI, bool)
}

// Collector is the Data Collection module: it scans all authorized users
// in parallel (each worker scans a different set of users, as in the
// paper), downloads their updates from every linked network, classifies
// comment sentiment in-memory and stores the results.
type Collector struct {
	users    *UserManager
	sink     Sink
	clf      Classifier
	resolver POIResolver
	workers  int
}

// NewCollector wires the module. workers is the parallel scan width.
func NewCollector(users *UserManager, sink Sink, clf Classifier, resolver POIResolver, workers int) (*Collector, error) {
	if users == nil || sink == nil || clf == nil || resolver == nil {
		return nil, fmt.Errorf("social: collector dependencies must be non-nil")
	}
	if workers < 1 {
		return nil, fmt.Errorf("social: collector needs >= 1 worker, got %d", workers)
	}
	return &Collector{users: users, sink: sink, clf: clf, resolver: resolver, workers: workers}, nil
}

// RunStats summarizes one collection pass.
type RunStats struct {
	UsersScanned  int
	FriendsStored int
	Checkins      int
	Unresolved    int // check-ins whose venue is not in the POI catalog
}

// Run performs one collection pass over (since, until] for every
// registered account. Users are sharded across workers; each user's
// friends and check-ins from all linked networks are joined under their
// platform identity.
func (c *Collector) Run(sinceMillis, untilMillis int64) (RunStats, error) {
	accounts := c.users.Accounts()
	type result struct {
		stats RunStats
		err   error
	}
	results := make(chan result, c.workers)
	var idx int64
	var mu sync.Mutex
	next := func() *Account {
		mu.Lock()
		defer mu.Unlock()
		if idx >= int64(len(accounts)) {
			return nil
		}
		a := accounts[idx]
		idx++
		return a
	}
	for w := 0; w < c.workers; w++ {
		go func() {
			var st RunStats
			for {
				acct := next()
				if acct == nil {
					results <- result{stats: st}
					return
				}
				if err := c.collectUser(acct, sinceMillis, untilMillis, &st); err != nil {
					results <- result{err: err}
					return
				}
				st.UsersScanned++
			}
		}()
	}
	var total RunStats
	var firstErr error
	for w := 0; w < c.workers; w++ {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		total.UsersScanned += r.stats.UsersScanned
		total.FriendsStored += r.stats.FriendsStored
		total.Checkins += r.stats.Checkins
		total.Unresolved += r.stats.Unresolved
	}
	return total, firstErr
}

// collectUser ingests one user's cross-network updates.
func (c *Collector) collectUser(acct *Account, since, until int64, st *RunStats) error {
	var friends []model.Friend
	var checkins []model.Checkin
	for _, network := range acct.Networks() {
		conn, err := c.users.Connector(network)
		if err != nil {
			return err
		}
		nid := acct.Links[network]
		f, err := conn.Friends(nid)
		if err != nil {
			return fmt.Errorf("social: friends of user %d on %s: %w", acct.UserID, network, err)
		}
		friends = append(friends, f...)
		u, err := conn.Updates(nid, since, until)
		if err != nil {
			return fmt.Errorf("social: updates of user %d on %s: %w", acct.UserID, network, err)
		}
		checkins = append(checkins, u...)
	}
	if err := c.sink.StoreFriends(acct.UserID, friends); err != nil {
		return err
	}
	st.FriendsStored += len(friends)

	sort.Slice(checkins, func(i, j int) bool { return checkins[i].Time < checkins[j].Time })
	var visits []model.Visit
	for _, chk := range checkins {
		grade := c.clf.SentimentGrade(chk.Comment)
		poi, ok := c.resolver.ResolvePOI(chk)
		if !ok {
			st.Unresolved++
			continue
		}
		if err := c.sink.StoreComment(model.Comment{
			UserID: acct.UserID,
			POIID:  poi.ID,
			Time:   chk.Time,
			Text:   chk.Comment,
			Grade:  grade,
		}); err != nil {
			return err
		}
		visits = append(visits, model.Visit{
			UserID:  acct.UserID,
			Time:    chk.Time,
			Grade:   grade,
			Network: chk.Network,
			POI:     poi,
		})
	}
	if len(visits) == 0 {
		return nil
	}
	if err := c.sink.StoreVisits(visits); err != nil {
		return err
	}
	st.Checkins += len(visits)
	return nil
}
