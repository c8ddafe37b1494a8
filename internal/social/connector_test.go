package social

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"modissense/internal/model"
)

// friendsDigest is the FNV-1a hash of a friend list's ids, names, networks
// and avatars, one line per friend.
func friendsDigest(fs []model.Friend) uint64 {
	h := fnv.New64a()
	for _, f := range fs {
		fmt.Fprintf(h, "%d %s %s %s\n", f.ID, f.Name, f.Network, f.Avatar)
	}
	return h.Sum64()
}

// TestFriendsGolden pins the friend lists of a few users on each network,
// generated and then served from the memo: the list's size, its first ids
// and a digest of every field of every friend. The simulated networks are
// the platform's input, so a change here moves every collected dataset.
func TestFriendsGolden(t *testing.T) {
	golden := []struct {
		network  string
		user     int64
		n        int
		firstIDs [3]int64
		digest   uint64
	}{
		{"facebook", 1, 17, [3]int64{425, 871, 958}, 0xfae6bb2c8b9df422},
		{"facebook", 500, 30, [3]int64{689, 225, 444}, 0xb570d9fe7df06003},
		{"twitter", 7, 22, [3]int64{518, 609, 749}, 0x5ddbea94f093d025},
		{"twitter", 1000, 25, [3]int64{345, 34, 72}, 0x72e7fe9d27523758},
		{"foursquare", 2, 21, [3]int64{222, 269, 860}, 0x7d341cb6ac61297b},
		{"foursquare", 333, 21, [3]int64{320, 505, 862}, 0x279169a440f1fe92},
	}
	conns := map[string]*SimConnector{}
	for _, g := range golden {
		c := conns[g.network]
		if c == nil {
			c = testConnector(t, g.network)
			conns[g.network] = c
		}
		// The second call is served from the memo.
		for call := 0; call < 2; call++ {
			fs, err := c.Friends(g.user)
			if err != nil {
				t.Fatal(err)
			}
			var first [3]int64
			for i := 0; i < len(first) && i < len(fs); i++ {
				first[i] = fs[i].ID
			}
			if d := friendsDigest(fs); len(fs) != g.n || first != g.firstIDs || d != g.digest {
				t.Errorf("%s user %d, call %d: %d friends, first %v, digest %#x; want %d, %v, %#x",
					g.network, g.user, call+1, len(fs), first, d, g.n, g.firstIDs, g.digest)
			}
		}
	}
}

// TestFriendsReturnsFreshSlice: a caller that rewrites or reslices what
// Friends returned does not change the next answer.
func TestFriendsReturnsFreshSlice(t *testing.T) {
	c := testConnector(t, "facebook")
	want, err := c.Friends(7)
	if err != nil {
		t.Fatal(err)
	}
	want = append([]model.Friend(nil), want...)
	got, err := c.Friends(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] = model.Friend{ID: -1, Name: "mutated"}
	}
	_ = append(got[:1], model.Friend{ID: -2})
	again, err := c.Friends(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("a caller's writes reached the memo:\n got %v\nwant %v", again, want)
	}
}

// TestFriendsShareProfiles: two lists naming the same user hold one copy of
// that user's strings.
func TestFriendsShareProfiles(t *testing.T) {
	c := testConnector(t, "twitter")
	seen := map[int64]model.Friend{}
	shared := 0
	for u := int64(1); u <= 200; u++ {
		fs, err := c.Friends(u)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			p, ok := seen[f.ID]
			if !ok {
				seen[f.ID] = f
				continue
			}
			if unsafe.StringData(p.Name) != unsafe.StringData(f.Name) || unsafe.StringData(p.Avatar) != unsafe.StringData(f.Avatar) {
				t.Fatalf("user %d's profile is held twice", f.ID)
			}
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no user was named by two lists; the test checked nothing")
	}
}

// TestFriendsConcurrent asks for overlapping friend lists from many
// goroutines (run under -race by make check) and requires every answer to
// equal a sequential connector's.
func TestFriendsConcurrent(t *testing.T) {
	const users, workers = 60, 8
	ref := testConnector(t, "foursquare")
	want := make([][]model.Friend, users+1)
	for u := int64(1); u <= users; u++ {
		fs, err := ref.Friends(u)
		if err != nil {
			t.Fatal(err)
		}
		want[u] = fs
	}
	c := testConnector(t, "foursquare")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2*users; i++ {
				u := int64((i*(w+1))%users + 1)
				fs, err := c.Friends(u)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(fs, want[u]) {
					t.Errorf("worker %d: user %d's friends differ from the sequential answer", w, u)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
