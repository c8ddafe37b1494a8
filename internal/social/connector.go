// Package social implements the social-network layer of the platform: the
// pluggable connector interface (the paper supports Facebook, Twitter and
// Foursquare "but it can be extended to more platforms with the appropriate
// plugin implementation"), an OAuth-style user-management module, and the
// Data Collection module that periodically scans authorized users in
// parallel and ingests their check-ins, comments and friend lists.
//
// The bundled connectors are simulated providers: deterministic synthetic
// social networks generated from seeds. They expose exactly the tuples the
// real APIs would (profile, friend list, check-ins with comments), so every
// downstream module exercises the same code path it would against the real
// services.
package social

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"modissense/internal/model"
	"modissense/internal/workload"
)

// Connector is the plugin interface a social network integration must
// implement.
type Connector interface {
	// Network returns the network identifier ("facebook", ...).
	Network() string
	// Exchange validates third-party credentials and returns the network's
	// stable user id — the OAuth code/token exchange.
	Exchange(credentials string) (int64, error)
	// Friends fetches the user's connections.
	Friends(networkUserID int64) ([]model.Friend, error)
	// Updates fetches the user's check-ins (with comments) in
	// (sinceMillis, untilMillis].
	Updates(networkUserID int64, sinceMillis, untilMillis int64) ([]model.Checkin, error)
}

// SimNetworkConfig parameterizes a simulated provider.
type SimNetworkConfig struct {
	// Name is the network identifier.
	Name string
	// Seed drives all of the network's randomness.
	Seed int64
	// Population is the number of users on the network.
	Population int
	// MeanFriends is the average friend-list size.
	MeanFriends int
	// CheckinsPerDay is the expected per-user daily check-in rate.
	CheckinsPerDay float64
	// POIs is the venue catalog users check into.
	POIs []model.POI
	// PositiveRate is the probability a check-in comment is positive.
	PositiveRate float64
}

// Validate checks the configuration.
func (c SimNetworkConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("social: network name empty")
	}
	if c.Population < 2 {
		return fmt.Errorf("social: network %q population %d too small", c.Name, c.Population)
	}
	if c.MeanFriends < 1 || c.MeanFriends >= c.Population {
		return fmt.Errorf("social: network %q mean friends %d out of range", c.Name, c.MeanFriends)
	}
	if len(c.POIs) == 0 {
		return fmt.Errorf("social: network %q has no POI catalog", c.Name)
	}
	if c.CheckinsPerDay <= 0 {
		return fmt.Errorf("social: network %q check-in rate must be positive", c.Name)
	}
	if c.PositiveRate < 0 || c.PositiveRate > 1 {
		return fmt.Errorf("social: network %q positive rate %g out of [0,1]", c.Name, c.PositiveRate)
	}
	return nil
}

// SimConnector is a deterministic synthetic social network. All state is
// derived on demand from (seed, user id), so the network behaves as an
// unbounded external service without materializing 150k users in memory.
// What it memoizes is held once: a friend list as ids, and one profile per
// network user, shared by every list that names the user.
type SimConnector struct {
	cfg SimNetworkConfig

	mu       sync.Mutex
	friends  map[int64][]int64      // memoized: stable friend lists
	profiles map[int64]model.Friend // the profile of every user a list names
}

// NewSimConnector validates cfg and builds the provider.
func NewSimConnector(cfg SimNetworkConfig) (*SimConnector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &SimConnector{
		cfg:      cfg,
		friends:  make(map[int64][]int64),
		profiles: make(map[int64]model.Friend),
	}, nil
}

// Network implements Connector.
func (s *SimConnector) Network() string { return s.cfg.Name }

// userRng returns a rand stream unique to (network, user, salt).
func (s *SimConnector) userRng(userID int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(s.cfg.Seed*1_000_003 + userID*31 + salt))
}

// Exchange implements Connector. Simulated credentials have the form
// "<network>:<numeric id>"; anything else is rejected, standing in for an
// OAuth denial.
func (s *SimConnector) Exchange(credentials string) (int64, error) {
	var id int64
	n, err := fmt.Sscanf(credentials, s.cfg.Name+":%d", &id)
	if err != nil || n != 1 {
		return 0, fmt.Errorf("social: %s rejected the credentials", s.cfg.Name)
	}
	if id < 1 || id > int64(s.cfg.Population) {
		return 0, fmt.Errorf("social: no %s account %d", s.cfg.Name, id)
	}
	return id, nil
}

// profile is the public profile of a network user.
func (s *SimConnector) profile(networkUserID int64) (model.Friend, error) {
	if networkUserID < 1 || networkUserID > int64(s.cfg.Population) {
		return model.Friend{}, fmt.Errorf("social: no %s account %d", s.cfg.Name, networkUserID)
	}
	return model.Friend{
		ID:      networkUserID,
		Name:    fmt.Sprintf("%s-user-%06d", s.cfg.Name, networkUserID),
		Network: s.cfg.Name,
		Avatar:  fmt.Sprintf("https://%s.example/avatar/%d.png", s.cfg.Name, networkUserID),
	}, nil
}

// Friends implements Connector. Friend lists are stable per user and
// roughly Poisson-sized around MeanFriends. Each call returns a fresh
// slice, which the caller may modify.
func (s *SimConnector) Friends(networkUserID int64) ([]model.Friend, error) {
	if networkUserID < 1 || networkUserID > int64(s.cfg.Population) {
		return nil, fmt.Errorf("social: no %s account %d", s.cfg.Name, networkUserID)
	}
	s.mu.Lock()
	if ids, ok := s.friends[networkUserID]; ok {
		out := make([]model.Friend, len(ids))
		for i, id := range ids {
			out[i] = s.profiles[id]
		}
		s.mu.Unlock()
		return out, nil
	}
	s.mu.Unlock()

	rng := s.userRng(networkUserID, 1)
	n := s.cfg.MeanFriends/2 + rng.Intn(s.cfg.MeanFriends+1)
	ids := workload.GenFriendList(rng, networkUserID, s.cfg.Population, n)
	out := make([]model.Friend, len(ids))
	for i, id := range ids {
		p, err := s.profile(id)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	// Keep the profiles already held (so every list shares one copy of a
	// user's strings) and hold the new ones.
	s.mu.Lock()
	for i := range out {
		if p, ok := s.profiles[out[i].ID]; ok {
			out[i] = p
		} else {
			s.profiles[out[i].ID] = out[i]
		}
	}
	s.friends[networkUserID] = ids
	s.mu.Unlock()
	return out, nil
}

// Updates implements Connector: check-ins are generated by a deterministic
// per-user Poisson-ish process over days, so repeated calls with the same
// window return identical data and non-overlapping windows return disjoint
// data — exactly the contract an incremental collector needs.
func (s *SimConnector) Updates(networkUserID, sinceMillis, untilMillis int64) ([]model.Checkin, error) {
	if networkUserID < 1 || networkUserID > int64(s.cfg.Population) {
		return nil, fmt.Errorf("social: no %s account %d", s.cfg.Name, networkUserID)
	}
	if untilMillis < sinceMillis {
		return nil, fmt.Errorf("social: update window inverted: %d > %d", sinceMillis, untilMillis)
	}
	const dayMs = int64(24 * time.Hour / time.Millisecond)
	var out []model.Checkin
	firstDay := sinceMillis / dayMs
	lastDay := untilMillis / dayMs
	for day := firstDay; day <= lastDay; day++ {
		rng := s.userRng(networkUserID, 1000+day)
		n := poissonish(rng, s.cfg.CheckinsPerDay)
		for k := 0; k < n; k++ {
			at := day*dayMs + rng.Int63n(dayMs)
			if at <= sinceMillis || at > untilMillis {
				continue
			}
			poi := s.cfg.POIs[rng.Intn(len(s.cfg.POIs))]
			positive := rng.Float64() < s.cfg.PositiveRate
			out = append(out, model.Checkin{
				UserID:  networkUserID,
				POIID:   poi.ID,
				POIName: poi.Name,
				Lat:     poi.Lat,
				Lon:     poi.Lon,
				Time:    at,
				Comment: workload.GenComment(rng, positive),
				Network: s.cfg.Name,
			})
		}
	}
	return out, nil
}

// poissonish draws a small non-negative count with the given mean using a
// simple inverse-CDF walk (adequate for means ≤ ~30).
func poissonish(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Knuth's algorithm.
	threshold := math.Exp(-mean)
	l := 1.0
	for i := 0; i < 500; i++ {
		l *= rng.Float64()
		if l < threshold {
			return i
		}
	}
	return 500
}
