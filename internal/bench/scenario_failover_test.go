package bench

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modissense/internal/faultinject"
	"modissense/internal/kvstore"
	"modissense/internal/model"
	"modissense/internal/query"
	"modissense/internal/repos"
)

// usersHomedOn returns, in id order, up to n users whose visit rows live in
// (on == true) or outside (on == false) the given regions.
func usersHomedOn(ds *Dataset, regions map[int]bool, on bool, n int) []int64 {
	var out []int64
	_, to := ds.Window()
	for uid := int64(1); uid <= int64(ds.Config.Users) && len(out) < n; uid++ {
		start, _ := repos.VisitScanBounds(uid, to, to)
		if regions[ds.Visits.Table().RegionFor(start).ID] == on {
			out = append(out, uid)
		}
	}
	return out
}

// TestScenarioPrimaryKill crashes the node owning the most region primaries
// — its reads, write admissions and WAL shipments all fail — under live
// check-in writers and scatter-query readers on a replicated,
// failover-enabled dataset. The failure detector must down the node and
// promote the most-caught-up replicas, and afterwards: no acknowledged
// write is lost, the write outage stayed inside the window budget, the
// deposed primary's stale-epoch write is fenced and invisible, readers rode
// through, every victim primary moved and every region is back at full
// replica factor off the dead node, the victim rejoins as a replica only,
// and no goroutine is left behind.
func TestScenarioPrimaryKill(t *testing.T) {
	const (
		seed          = 61
		nodes         = 4
		replicas      = 2
		writers       = 4
		acksPerWriter = 300
		sentinelEvery = 50
		// Writer 0, homed on the victim, pulls the trigger after this many
		// of its own acks: the kill always lands mid-stream and always
		// interrupts acknowledged traffic.
		killAfterAcks = 100
		readers       = 2
		friends       = 150
		// windowBudget bounds the longest write-unavailability window; the
		// measured outage is ~0.1 s.
		windowBudget = 2 * time.Second
	)
	ds, err := BuildDataset(scenarioDataset(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	tbl := ds.Visits.Table()
	if err := tbl.EnableReplication(replicas); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CatchUpReplication(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.EnableFailover(kvstore.FailoverConfig{}); err != nil {
		t.Fatal(err)
	}
	pol := query.DefaultReadPolicy()
	pol.JitterSeed = seed
	ds.Engine.SetReadPolicy(&pol)
	goroutinesBefore := runtime.NumGoroutine()

	// The victim is the node owning the most region primaries (the lowest id
	// on a tie): killing it interrupts the largest slice of the write traffic.
	primaries := make([]int, nodes)
	for _, r := range tbl.Regions() {
		primaries[r.PrimaryNode()]++
	}
	victim := 0
	for node, n := range primaries {
		if n > primaries[victim] {
			victim = node
		}
	}
	victimRegions := map[int]bool{}
	var zombieRow string
	var zombieEpoch uint64
	for _, r := range tbl.Regions() {
		if r.PrimaryNode() != victim {
			continue
		}
		victimRegions[r.ID] = true
		if zombieRow == "" {
			// A row inside the region, since its start key and a zero byte
			// sort below the next region's start: the stale-epoch write the
			// deposed primary replays after the promotion.
			zombieRow = r.StartKey + "\x00"
			zombieEpoch = r.Epoch()
		}
	}
	// The first two writers are homed on the victim's regions, the rest
	// elsewhere and must ride through undisturbed.
	uids := append(usersHomedOn(ds, victimRegions, true, 2), usersHomedOn(ds, victimRegions, false, writers-2)...)
	if len(victimRegions) == 0 || len(uids) != writers {
		t.Fatalf("victim node %d: %d primaries, %d of %d writers placed", victim, len(victimRegions), len(uids), writers)
	}

	crash := func(kind faultinject.OpKind) faultinject.Rule {
		return faultinject.Rule{
			Fault: faultinject.Crash, Op: kind, Node: victim,
			Region: faultinject.Any, Replica: faultinject.Any, Prob: 1,
		}
	}
	inj := faultinject.New(faultinject.Schedule{
		Seed:  seed,
		Rules: []faultinject.Rule{crash(faultinject.OpRead), crash(faultinject.OpPut), crash(faultinject.OpShip)},
	})

	type sentinel struct{ user, time int64 }
	var (
		mu             sync.Mutex
		sentinels      []sentinel
		maxOutage      time.Duration
		retries        atomic.Int64
		writersRunning sync.WaitGroup
	)
	_, winTo := ds.Window()
	for wi := 0; wi < writers; wi++ {
		writersRunning.Add(1)
		go func(wi int) {
			defer writersRunning.Done()
			var outageStart time.Time
			for i := 0; i < acksPerWriter; i++ {
				v := model.Visit{
					UserID:  uids[wi],
					Time:    winTo + 1 + int64(wi*acksPerWriter+i),
					Grade:   float64(i%5 + 1),
					Network: "facebook",
					POI:     model.POI{ID: int64(i%ds.Config.POIs + 1)},
				}
				for {
					err := ds.Visits.Store(v)
					if err == nil {
						break
					}
					if errors.Is(err, kvstore.ErrEpochFenced) {
						t.Errorf("writer %d: ack-path write fenced: %v", wi, err)
						return
					}
					retries.Add(1)
					if outageStart.IsZero() {
						outageStart = time.Now()
					}
					if time.Since(outageStart) > 10*windowBudget {
						t.Errorf("writer %d: still failing %s after the kill: %v", wi, time.Since(outageStart), err)
						return
					}
					time.Sleep(500 * time.Microsecond)
				}
				mu.Lock()
				if !outageStart.IsZero() {
					if w := time.Since(outageStart); w > maxOutage {
						maxOutage = w
					}
					outageStart = time.Time{}
				}
				if (i+1)%sentinelEvery == 0 {
					sentinels = append(sentinels, sentinel{user: v.UserID, time: v.Time})
				}
				mu.Unlock()
				if wi == 0 && i+1 == killAfterAcks {
					tbl.SetFaultInjector(inj)
					ds.Engine.SetFaultInjector(inj)
				}
			}
		}(wi)
	}

	// Readers: personalized scatters until the writers finish, at least one
	// each. Degraded answers are non-5xx; only errors count against them.
	stopReaders := make(chan struct{})
	var readersRunning sync.WaitGroup
	var queriesOK, queryErrors atomic.Int64
	from, to := ds.Window()
	for ri := 0; ri < readers; ri++ {
		readersRunning.Add(1)
		go func(ri int) {
			defer readersRunning.Done()
			rng := rand.New(rand.NewSource(seed + int64(ri)*7919))
			for stop := false; !stop; {
				spec := query.Spec{
					FriendIDs:  ds.FriendSample(rng, friends),
					FromMillis: from,
					ToMillis:   to,
					OrderBy:    query.ByInterest,
					Limit:      10,
				}
				ctx, cancel := context.WithTimeout(context.Background(), windowBudget)
				_, err := ds.Engine.Run(ctx, spec)
				cancel()
				if err != nil {
					queryErrors.Add(1)
				} else {
					queriesOK.Add(1)
				}
				select {
				case <-stopReaders:
					stop = true
				default:
				}
			}
		}(ri)
	}
	writersRunning.Wait()
	close(stopReaders)
	readersRunning.Wait()
	if t.Failed() {
		return
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 15*time.Second)
	err = tbl.WaitFailover(wctx)
	wcancel()
	if err != nil {
		t.Fatalf("failover did not converge: %v", err)
	}
	t.Logf("victim node %d: %d write retries, longest outage %s, queries %d ok / %d failed",
		victim, retries.Load(), maxOutage, queriesOK.Load(), queryErrors.Load())

	if retries.Load() == 0 {
		t.Error("the kill interrupted no write: the scenario exercised nothing")
	}
	if maxOutage > windowBudget {
		t.Errorf("longest write outage %s exceeds the %s window budget", maxOutage, windowBudget)
	}
	if ok, bad := queriesOK.Load(), queryErrors.Load(); ok*100 < 99*(ok+bad) {
		t.Errorf("readers: %d of %d queries failed, want >= 99%% non-5xx", bad, ok+bad)
	}

	// Topology: every victim primary promoted away, every region back at
	// full replica factor with no copy on the dead node.
	for _, r := range tbl.Regions() {
		if r.PrimaryNode() == victim {
			t.Errorf("region %d: primary still on the downed node %d", r.ID, victim)
		}
		if r.Replicas() != replicas {
			t.Errorf("region %d: %d replicas, want %d", r.ID, r.Replicas(), replicas)
		}
		for i := 1; i <= r.Replicas(); i++ {
			if r.ReadView(i).NodeID == victim {
				t.Errorf("region %d: replica %d still on the downed node %d", r.ID, i, victim)
			}
		}
	}

	// Zombie fencing: the deposed primary retries a write it had in flight,
	// carrying its pre-promotion epoch. It must be rejected before the WAL
	// and must not become readable.
	if err := tbl.PutFenced(zombieRow, "z", winTo+1, []byte("zombie"), zombieEpoch); !errors.Is(err, kvstore.ErrEpochFenced) {
		t.Errorf("zombie write at stale epoch %d: err = %v, want ErrEpochFenced", zombieEpoch, err)
	}
	if err := tbl.Scan(kvstore.ScanOptions{StartRow: zombieRow, StopRow: zombieRow + "\x00"}, func(row kvstore.RowResult) bool {
		if _, visible := row.Get("z"); visible {
			t.Error("zombie write is readable after being fenced")
		}
		return false
	}); err != nil {
		t.Error(err)
	}

	// Zero acked-write loss: every sentinel acked before, during or after
	// the outage is readable from the promoted primaries.
	if want := writers * acksPerWriter / sentinelEvery; len(sentinels) != want {
		t.Errorf("%d sentinels recorded, want %d", len(sentinels), want)
	}
	stored := map[sentinel]bool{}
	if err := ds.Visits.ScanAll(func(v model.Visit) bool {
		stored[sentinel{user: v.UserID, time: v.Time}] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, s := range sentinels {
		if !stored[s] {
			t.Errorf("acked check-in lost across the cutover: user %d time %d", s.user, s.time)
		}
	}

	// Rejoin: lift the faults (the node was "fixed"), re-enter it as a
	// catching-up replica; it must never come back as a primary.
	tbl.SetFaultInjector(nil)
	ds.Engine.SetFaultInjector(nil)
	if err := tbl.RejoinNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CatchUpReplication(); err != nil {
		t.Fatal(err)
	}
	if h := tbl.NodeHealth(victim); h != kvstore.NodeHealthy {
		t.Errorf("rejoined node %d health = %v, want healthy", victim, h)
	}
	for _, r := range tbl.Regions() {
		if r.PrimaryNode() == victim {
			t.Errorf("region %d: rejoined node %d came back as primary", r.ID, victim)
		}
	}

	// Promotion goroutines and cancelled read attempts drain on their own.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after the run, %d before", runtime.NumGoroutine(), goroutinesBefore)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}
