package social

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"modissense/internal/model"
)

// Account is one platform user with their linked social networks. The
// platform requires no username/password: identity comes entirely from
// linked network accounts, as in the paper's OAuth-only sign-in flow.
type Account struct {
	UserID int64
	// Links maps network name → that network's user id.
	Links map[string]int64
}

// Networks lists the linked networks in sorted order.
func (a *Account) Networks() []string {
	out := make([]string, 0, len(a.Links))
	for n := range a.Links {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// UserManager implements the User Management module: registration and
// sign-in through social-network credentials, access-token issuance, and
// linking of additional networks to an existing account.
type UserManager struct {
	mu         sync.RWMutex
	connectors map[string]Connector
	// accounts by platform user id.
	accounts map[int64]*Account
	// identity maps network:networkUserID → platform user id, so the same
	// social account always signs into the same platform account.
	identity map[string]int64
	// tokens maps access token → platform user id.
	tokens map[string]int64
	nextID int64
}

// NewUserManager builds a manager over the given connector plugins.
func NewUserManager(connectors ...Connector) (*UserManager, error) {
	m := &UserManager{
		connectors: map[string]Connector{},
		accounts:   map[int64]*Account{},
		identity:   map[string]int64{},
		tokens:     map[string]int64{},
	}
	for _, c := range connectors {
		if c == nil {
			return nil, fmt.Errorf("social: nil connector")
		}
		if _, dup := m.connectors[c.Network()]; dup {
			return nil, fmt.Errorf("social: duplicate connector for %q", c.Network())
		}
		m.connectors[c.Network()] = c
	}
	if len(m.connectors) == 0 {
		return nil, fmt.Errorf("social: user manager needs at least one connector")
	}
	return m, nil
}

// Connector returns the plugin for a network.
func (m *UserManager) Connector(network string) (Connector, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, ok := m.connectors[network]
	if !ok {
		return nil, fmt.Errorf("social: unsupported network %q", network)
	}
	return c, nil
}

// SignIn registers (or signs in) a user with social-network credentials
// and returns the account plus a fresh access token. A social identity
// seen before signs into its existing platform account.
func (m *UserManager) SignIn(network, credentials string) (*Account, string, error) {
	conn, err := m.Connector(network)
	if err != nil {
		return nil, "", err
	}
	networkUserID, err := conn.Exchange(credentials)
	if err != nil {
		return nil, "", err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	key := identityKey(network, networkUserID)
	uid, known := m.identity[key]
	if !known {
		m.nextID++
		uid = m.nextID
		m.accounts[uid] = &Account{UserID: uid, Links: map[string]int64{network: networkUserID}}
		m.identity[key] = uid
	}
	token, err := newToken()
	if err != nil {
		return nil, "", err
	}
	m.tokens[token] = uid
	return m.accounts[uid].clone(), token, nil
}

// Link attaches one more network account to the authenticated user,
// enabling the cross-network data joining the paper describes.
func (m *UserManager) Link(token, network, credentials string) (*Account, error) {
	uid, err := m.Authenticate(token)
	if err != nil {
		return nil, err
	}
	conn, err := m.Connector(network)
	if err != nil {
		return nil, err
	}
	networkUserID, err := conn.Exchange(credentials)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	key := identityKey(network, networkUserID)
	if owner, taken := m.identity[key]; taken && owner != uid {
		return nil, fmt.Errorf("social: %s account %d already linked to another user", network, networkUserID)
	}
	acct := m.accounts[uid]
	acct.Links[network] = networkUserID
	m.identity[key] = uid
	return acct.clone(), nil
}

// Authenticate resolves an access token to a platform user id.
func (m *UserManager) Authenticate(token string) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	uid, ok := m.tokens[token]
	if !ok {
		return 0, fmt.Errorf("social: invalid access token")
	}
	return uid, nil
}

// Account returns the account of a platform user.
func (m *UserManager) Account(userID int64) (*Account, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	a, ok := m.accounts[userID]
	if !ok {
		return nil, fmt.Errorf("social: no account %d", userID)
	}
	return a.clone(), nil
}

// Accounts returns every registered account, ordered by user id — the scan
// set of the Data Collection module.
func (m *UserManager) Accounts() []*Account {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Account, 0, len(m.accounts))
	for _, a := range m.accounts {
		out = append(out, a.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UserID < out[j].UserID })
	return out
}

// Friends aggregates the user's friend lists across all linked networks.
func (m *UserManager) Friends(userID int64) ([]model.Friend, error) {
	acct, err := m.Account(userID)
	if err != nil {
		return nil, err
	}
	var out []model.Friend
	for _, network := range acct.Networks() {
		conn, err := m.Connector(network)
		if err != nil {
			return nil, err
		}
		friends, err := conn.Friends(acct.Links[network])
		if err != nil {
			return nil, err
		}
		out = append(out, friends...)
	}
	return out, nil
}

func (a *Account) clone() *Account {
	links := make(map[string]int64, len(a.Links))
	for k, v := range a.Links {
		links[k] = v
	}
	return &Account{UserID: a.UserID, Links: links}
}

func identityKey(network string, id int64) string {
	return fmt.Sprintf("%s:%d", network, id)
}

func newToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("social: token generation: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
