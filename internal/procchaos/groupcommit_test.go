package procchaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ffwd/internal/linear"
)

// TestProcLeaderCommitBatchCrash lands the leader's kill -9 in the
// middle of a group commit: FFWD_CRASH_POINT=commit-batch:25 fires
// right after batch 25 is synced to the leader's WAL and before any
// follower is asked for it, while four clients keep writes in flight —
// so the batch holds writes that were appended but never acked. The
// leader restarts from its surviving files and commits its whole WAL.
// The recorded history (acked ops, ops pending at the crash, and a
// final read of every key) must linearize: an acked write that did not
// survive, or a read of a write that never happened, fails it.
func TestProcLeaderCommitBatchCrash(t *testing.T) {
	const workers, keys = 4, 8
	dir := runDir(t)
	la, a1, a2 := freePort(t), freePort(t), freePort(t)
	member(t, dir, "m1", "m1", a1, nil)
	member(t, dir, "m2", "m2", a2, nil)
	ld := leader(t, dir, "leader", la, []string{a1, a2},
		[]string{"FFWD_CRASH_POINT=commit-batch:25"})

	rec := linear.NewRecorder()
	var completed, ackedSets, inflight atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &client{addr: la}
			defer c.drop()
			rng := uint64(w+1) << 20
			for i := 1; !stop.Load(); i++ {
				if err := c.ensure(); err != nil {
					time.Sleep(20 * time.Millisecond)
					continue
				}
				key := splitmix(&rng) % keys
				if splitmix(&rng)%2 == 0 {
					v := uint64(w+1)<<32 | uint64(i)
					idx := rec.Invoke(w, linear.KVSet, key, v)
					if _, err := c.do(fmt.Sprintf("set %d %d", key, v)); err != nil {
						inflight.Add(1) // in flight when the leader died: stays pending
						continue
					}
					rec.Complete(idx, 0, false)
					ackedSets.Add(1)
				} else {
					idx := rec.Invoke(w, linear.KVGet, key, 0)
					resp, err := c.do(fmt.Sprintf("get %d", key))
					if err != nil {
						continue
					}
					got, ok := parseValue(t, resp)
					rec.Complete(idx, got, ok)
				}
				completed.Add(1)
			}
		}(w)
	}

	ld.waitExit(60 * time.Second) // the crash point fires on its own
	leader(t, dir, "leader2", la, []string{a1, a2}, nil)
	waitCount(t, "post-restart ops", &completed, completed.Load()+40)
	stop.Store(true)
	wg.Wait()

	vc := &client{addr: la}
	defer vc.drop()
	waitAlive(t, vc, 3, 15*time.Second)
	for key := uint64(0); key < keys; key++ {
		idx := rec.Invoke(workers, linear.KVGet, key, 0)
		got, ok := parseValue(t, vc.mustDo(t, fmt.Sprintf("get %d", key), 10*time.Second))
		rec.Complete(idx, got, ok)
	}
	hh := rec.History()
	if p := linear.FailingPartition(linear.KVModel(), hh); p >= 0 {
		t.Fatalf("history across a mid-group-commit kill is not linearizable (partition %d of %d ops)", p, len(hh))
	}
	if inflight.Load() == 0 {
		t.Fatal("no write was in flight when the leader died; the crash point missed the group commit")
	}
	t.Logf("%d ops in history, %d acked sets, %d sets in flight at the crash, none lost", len(hh), ackedSets.Load(), inflight.Load())
}
