package repos

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"modissense/internal/trajectory"
)

// BlogsRepo stores generated daily blogs, one per (user, day): blogs are
// frequently queried by users but rarely updated, the same access profile
// as POIs. Blogs are indexed by user and day and by id; every StoredBlog
// going in or out is a copy, so callers may keep or modify what they get.
type BlogsRepo struct {
	mu     sync.RWMutex
	byID   map[int64]StoredBlog
	byUser map[int64]map[int64]int64 // user → day number → blog id
	nextID int64
}

// NewBlogsRepo creates an empty repository.
func NewBlogsRepo() *BlogsRepo {
	return &BlogsRepo{byID: make(map[int64]StoredBlog), byUser: make(map[int64]map[int64]int64)}
}

// StoredBlog is the repository view of a blog.
type StoredBlog struct {
	ID       int64              `json:"id"`
	UserID   int64              `json:"user_id"`
	Day      time.Time          `json:"day"`
	Title    string             `json:"title"`
	Rendered string             `json:"rendered"`
	Entries  []trajectory.Visit `json:"entries"`
	Shared   bool               `json:"shared"`
}

// clone copies b with an entries slice of its own.
func (b StoredBlog) clone() StoredBlog {
	b.Entries = slices.Clone(b.Entries)
	return b
}

func dayNumber(t time.Time) int64 {
	return t.UTC().Unix() / 86400
}

// Save persists (or replaces) the blog of (user, day). A replacement keeps
// the blog's id and share flag.
func (r *BlogsRepo) Save(b *trajectory.Blog) (StoredBlog, error) {
	if b == nil {
		return StoredBlog{}, fmt.Errorf("repos: nil blog")
	}
	day := dayNumber(b.Date)
	stored := StoredBlog{
		UserID:   b.UserID,
		Day:      time.Unix(day*86400, 0).UTC(),
		Title:    b.Title,
		Rendered: b.Render(),
		Entries:  slices.Clone(b.Entries),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	days := r.byUser[b.UserID]
	if days == nil {
		days = make(map[int64]int64)
		r.byUser[b.UserID] = days
	}
	if id, ok := days[day]; ok {
		stored.ID, stored.Shared = id, r.byID[id].Shared
	} else {
		r.nextID++
		stored.ID = r.nextID
		days[day] = stored.ID
	}
	r.byID[stored.ID] = stored
	return stored.clone(), nil
}

// Get returns the blog of (user, day) if present.
func (r *BlogsRepo) Get(userID int64, day time.Time) (StoredBlog, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.byUser[userID][dayNumber(day)]
	if !ok {
		return StoredBlog{}, false
	}
	return r.byID[id].clone(), true
}

// ListUser returns all blogs of a user, newest day first.
func (r *BlogsRepo) ListUser(userID int64) []StoredBlog {
	r.mu.RLock()
	days := r.byUser[userID]
	out := make([]StoredBlog, 0, len(days))
	for _, id := range days {
		out = append(out, r.byID[id].clone())
	}
	r.mu.RUnlock()
	slices.SortFunc(out, func(a, b StoredBlog) int { return b.Day.Compare(a.Day) })
	return out
}

// MarkShared flags the blog as posted to a social network.
func (r *BlogsRepo) MarkShared(blogID int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.byID[blogID]
	if !ok {
		return fmt.Errorf("repos: no blog %d", blogID)
	}
	b.Shared = true
	r.byID[blogID] = b
	return nil
}
