package replica

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// powerDomain is one crash shared by every fakeDisk of a test cluster:
// storage operation crashAt (1-based, counted across all disks) never
// happens, and from then on every disk refuses every operation. What
// each disk keeps is what it had synced — unlike kill -9, which leaves
// the page cache, and with it unsynced writes, intact.
type powerDomain struct {
	mu      sync.Mutex
	ops     int
	crashAt int // 0 = never
	crashed bool
}

var errPowerLoss = errors.New("fake disk: power lost")

// step admits one storage operation, or reports the crash.
func (p *powerDomain) step() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return errPowerLoss
	}
	p.ops++
	if p.ops == p.crashAt {
		p.crashed = true
		return errPowerLoss
	}
	return nil
}

var errSyncFault = errors.New("fake disk: sync failed")

// fakeDisk is a Storage that keeps appended entries in a volatile
// buffer until Sync. Snapshot saves, truncations and compactions are
// atomic and durable at once, as replog makes them. Like replog's WAL it
// refuses an append that does not continue its log, and its append
// cursor moves past an append even when the sync after it fails.
type fakeDisk struct {
	power *powerDomain

	mu      sync.Mutex
	synced  []Entry
	pending []Entry
	next    uint64 // index the next append must carry; 0 accepts any
	snap    *Snapshot
	bad     string // first contract violation seen, if any

	syncFaults atomic.Int32 // the next n Syncs fail without losing power
	syncedLast atomic.Uint64
}

func (d *fakeDisk) AppendEntries(ents []Entry) error {
	if err := d.power.step(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range ents {
		if d.next != 0 && e.Index != d.next {
			return fmt.Errorf("fake disk: append index %d, want %d", e.Index, d.next)
		}
		d.pending = append(d.pending, e)
		d.next = e.Index + 1
	}
	return nil
}

func (d *fakeDisk) Sync() error {
	if err := d.power.step(); err != nil {
		return err
	}
	if d.syncFaults.Add(-1) >= 0 {
		return errSyncFault
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.synced = append(d.synced, d.pending...)
	d.pending = nil
	if n := len(d.synced); n > 0 {
		d.syncedLast.Store(d.synced[n-1].Index)
	}
	return nil
}

func (d *fakeDisk) TruncateSuffix(i uint64) error {
	if err := d.power.step(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	keep := func(ents []Entry) []Entry {
		for n, e := range ents {
			if e.Index >= i {
				return ents[:n]
			}
		}
		return ents
	}
	d.synced, d.pending = keep(d.synced), keep(d.pending)
	if d.next != 0 && i < d.next {
		d.next = i
	}
	return nil
}

func (d *fakeDisk) Compact(i uint64) error {
	if err := d.power.step(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if (d.snap == nil || d.snap.LastIndex < i) && d.bad == "" {
		d.bad = "WAL compacted past the saved snapshot"
	}
	for len(d.synced) > 0 && d.synced[0].Index <= i {
		d.synced = d.synced[1:]
	}
	return nil
}

func (d *fakeDisk) SaveSnapshot(s *Snapshot) error {
	if err := d.power.step(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.snap = s
	return nil
}

func (d *fakeDisk) InstallSnapshot(s *Snapshot) error {
	if err := d.power.step(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.snap, d.synced, d.pending, d.next = s, nil, nil, s.LastIndex+1
	return nil
}

func (d *fakeDisk) SaveTerm(uint64) error { return nil }
func (d *fakeDisk) Close() error          { return nil }

// image returns what survives the crash: the saved snapshot and the
// synced entries past it.
func (d *fakeDisk) image() (*Snapshot, []Entry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var ents []Entry
	for _, e := range d.synced {
		if d.snap == nil || e.Index > d.snap.LastIndex {
			ents = append(ents, e)
		}
	}
	return d.snap, ents
}

// holds reports whether the disk's surviving image carries key=val.
func (d *fakeDisk) holds(key, val uint64) bool {
	snap, ents := d.image()
	for _, e := range ents {
		if e.Kind == OpSet && e.Key == key && e.Val == val {
			return true
		}
	}
	if snap != nil {
		m := newMapMachine()
		m.Restore(snap.State)
		return m.m[key] == val
	}
	return false
}

// memRemote is a follower behind an in-memory transport: each Replicate
// pulls frames from the group and feeds them to a durable Member, the
// way reptrans.Peer and reptrans.Server do over TCP.
type memRemote struct {
	id   int
	g    *Group
	m    *Member
	disk *fakeDisk
	lead *fakeDisk

	mu   sync.Mutex // one frame at a time, like a transport server
	next uint64
	wg   sync.WaitGroup

	leaks atomic.Uint64 // frames carrying an entry the leader had not synced
}

func (r *memRemote) ID() int       { return r.id }
func (r *memRemote) Healthy() bool { return true }

func (r *memRemote) Replicate(index, commit uint64, done chan<- RemoteAck) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		match, ok := r.ship()
		if done != nil {
			done <- RemoteAck{ID: r.id, Index: match, OK: ok && match >= index}
		}
	}()
}

func (r *memRemote) ship() (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for attempt := 0; attempt < 64; attempt++ {
		fr := r.g.FrameFor(r.next)
		// The leader's synced index only grows, so reading it after the
		// frame was cut can only excuse a leak, never invent one.
		if n := len(fr.Entries); n > 0 && fr.Entries[n-1].Index > r.lead.syncedLast.Load() {
			r.leaks.Add(1)
		}
		if fr.Snap != nil {
			if err := r.m.InstallSnap(fr.Snap); err != nil {
				return 0, false
			}
		}
		match, hint, err := r.m.HandleAppend(fr.PrevIndex, fr.PrevTerm, fr.Entries, fr.Commit)
		if err != nil {
			return 0, false
		}
		r.next = hint + 1
		if match {
			return hint, true
		}
	}
	return 0, false
}

// runCrashCase drives concurrent group-committed writes through a
// pinned leader and two durable followers, cuts the power before
// storage operation crashAt (0: never), recovers the leader from what
// its disk synced, and checks that every acknowledged write survived —
// in the recovered leader's state and on a quorum of surviving disks —
// and that no follower was ever shipped an entry the leader had not
// synced. It returns how many storage operations the run made.
func runCrashCase(t *testing.T, crashAt int) int {
	t.Helper()
	power := &powerDomain{crashAt: crashAt}
	lead := &fakeDisk{power: power}
	var remotes []Remote
	var fols []*memRemote
	for i := 0; i < 2; i++ {
		d := &fakeDisk{power: power}
		r := &memRemote{id: 101 + i, m: NewMember(newMapMachine(), 4, d), disk: d, lead: lead}
		fols = append(fols, r)
		remotes = append(remotes, r)
	}
	g, err := NewGroup(GroupConfig{
		Replicas:      1,
		SnapshotEvery: 4,
		NewMachine:    func() StateMachine { return newMapMachine() },
		Storage:       lead,
		Recovered:     &RecoveredLeader{},
		Remotes:       remotes,
		AckTimeout:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fols {
		r.g = g
	}
	leader, _ := g.Leader()

	const writers, writes = 3, 6
	var mu sync.Mutex
	acked := map[uint64]uint64{}
	var wg sync.WaitGroup
	for w := uint64(1); w <= writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for seq := uint64(1); seq <= writes; seq++ {
				key := w<<8 | seq
				if _, err := g.Propose(leader, w, seq, OpSet, key, key*7+1); err != nil {
					return // the crash, or a batch it failed; stays unacked
				}
				mu.Lock()
				acked[key] = key*7 + 1
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	g.Close()
	for _, r := range fols {
		r.wg.Wait()
	}
	if crashAt == 0 && len(acked) != writers*writes {
		t.Fatalf("crash-free run acked %d of %d writes", len(acked), writers*writes)
	}
	for _, d := range []*fakeDisk{lead, fols[0].disk, fols[1].disk} {
		if d.bad != "" {
			t.Fatalf("crash at op %d: %s", crashAt, d.bad)
		}
	}
	for _, r := range fols {
		if n := r.leaks.Load(); n > 0 {
			t.Fatalf("crash at op %d: follower %d got %d frames past the leader's synced index", crashAt, r.id, n)
		}
	}

	snap, ents := lead.image()
	g2, err := NewGroup(GroupConfig{
		Replicas:   1,
		NewMachine: func() StateMachine { return newMapMachine() },
		Storage:    &fakeDisk{power: &powerDomain{}},
		Recovered:  &RecoveredLeader{Snap: snap, Entries: ents},
		Term:       2,
	})
	if err != nil {
		t.Fatalf("crash at op %d: recovery: %v", crashAt, err)
	}
	defer g2.Close()
	lead2, _ := g2.Leader()
	state := lead2.SM().(*mapMachine).m
	for key, val := range acked {
		if state[key] != val {
			t.Fatalf("crash at op %d: acked write %d=%d lost (recovered %d)", crashAt, key, val, state[key])
		}
		if !fols[0].disk.holds(key, val) && !fols[1].disk.holds(key, val) {
			t.Fatalf("crash at op %d: acked write %d=%d is on no follower's synced disk", crashAt, key, val)
		}
	}
	return power.ops
}

// TestGroupCommitCrashKeepsAckedWrites cuts the power at every storage
// step of a run of group commits — leader WAL write and sync, follower
// appends and syncs, snapshot saves and compactions on every member —
// and requires every acknowledged write to survive on what was synced.
func TestGroupCommitCrashKeepsAckedWrites(t *testing.T) {
	total := runCrashCase(t, 0)
	if total == 0 {
		t.Fatal("crash-free run made no storage operations")
	}
	t.Logf("crash-free run: %d storage operations", total)
	// Batching varies with scheduling, so a crashing run may make a few
	// more operations than the crash-free one; sweep past it.
	for at := 1; at <= total+8; at++ {
		runCrashCase(t, at)
	}
}

// A failed WAL sync on the leader or on a follower fails that batch's
// writes but not the group: the store is rolled back to what was
// synced, so the next batch, which carries the failed entries again, is
// accepted and commits.
func TestGroupCommitSurvivesSyncFault(t *testing.T) {
	for _, faulty := range []string{"leader", "follower"} {
		t.Run(faulty, func(t *testing.T) {
			power := &powerDomain{}
			lead, fd := &fakeDisk{power: power}, &fakeDisk{power: power}
			// One remote: quorum is 2 of 2, so the follower's sync counts.
			fol := &memRemote{id: 101, m: NewMember(newMapMachine(), 4, fd), disk: fd, lead: lead}
			g, err := NewGroup(GroupConfig{
				Replicas:   1,
				NewMachine: func() StateMachine { return newMapMachine() },
				Storage:    lead,
				Recovered:  &RecoveredLeader{},
				Remotes:    []Remote{fol},
				AckTimeout: time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			fol.g = g
			defer func() { g.Close(); fol.wg.Wait() }()
			leader, _ := g.Leader()
			if faulty == "leader" {
				lead.syncFaults.Store(1)
			} else {
				fd.syncFaults.Store(1)
			}
			if _, err := g.Propose(leader, 1, 1, OpSet, 1, 10); err == nil {
				t.Fatal("write acked across a failed sync")
			}
			for seq := uint64(2); seq <= 3; seq++ {
				if _, err := g.Propose(leader, 1, seq, OpSet, seq, seq*10); err != nil {
					t.Fatalf("write %d after the sync fault: %v", seq, err)
				}
			}
			for _, d := range []*fakeDisk{lead, fd} {
				if d.bad != "" {
					t.Fatal(d.bad)
				}
				for key := uint64(1); key <= 3; key++ {
					if !d.holds(key, key*10) {
						t.Fatalf("write %d=%d is not on a synced disk", key, key*10)
					}
				}
			}
		})
	}
}

// TestGroupCommitBatchesWrites pins the group commit itself: writes
// appended while a batch waits on its quorum share the next batch, so
// batches are fewer than writes and the leader syncs once per batch.
func TestGroupCommitBatchesWrites(t *testing.T) {
	slow := &delayRemote{id: 101, delay: 5 * time.Millisecond}
	g, err := NewGroup(GroupConfig{
		Replicas:   1,
		Remotes:    []Remote{slow, &delayRemote{id: 102, delay: 5 * time.Millisecond}},
		NewMachine: func() StateMachine { return newMapMachine() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	lead, _ := g.Leader()
	const writers = 8
	var wg sync.WaitGroup
	for w := uint64(1); w <= writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for seq := uint64(1); seq <= 4; seq++ {
				if _, err := g.Propose(lead, w, seq, OpSet, w, seq); err != nil {
					t.Errorf("writer %d seq %d: %v", w, seq, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := g.Stats()
	if st.Commits != writers*4 {
		t.Fatalf("Commits = %d, want %d", st.Commits, writers*4)
	}
	if st.Batches >= st.Commits {
		t.Fatalf("%d batches for %d commits: writes never shared a group commit", st.Batches, st.Commits)
	}
}

// delayRemote acks every Replicate after a fixed delay, off the caller's
// goroutine — a healthy but distant follower.
type delayRemote struct {
	id    int
	delay time.Duration
}

func (r *delayRemote) ID() int       { return r.id }
func (r *delayRemote) Healthy() bool { return true }
func (r *delayRemote) Replicate(index, commit uint64, done chan<- RemoteAck) {
	if done == nil {
		return
	}
	time.AfterFunc(r.delay, func() { done <- RemoteAck{ID: r.id, Index: index, OK: true} })
}

// A leader-local read is not held up by a write waiting on its quorum:
// the committer waits with the group lock released.
func TestReadDoesNotWaitForQuorum(t *testing.T) {
	g, err := NewGroup(GroupConfig{
		Replicas: 1,
		Remotes: []Remote{
			&delayRemote{id: 101, delay: 50 * time.Millisecond},
			&delayRemote{id: 102, delay: 50 * time.Millisecond},
		},
		NewMachine: func() StateMachine { return newMapMachine() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	lead, _ := g.Leader()
	idx, err := g.Append(lead, 1, 1, OpSet, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the committer start waiting
	start := time.Now()
	v, err := g.Read(lead, func(sm StateMachine) uint64 { return sm.(*mapMachine).m[5] })
	if d := time.Since(start); err != nil || d > 25*time.Millisecond {
		t.Fatalf("read during a pending commit took %v (err %v)", d, err)
	}
	if v != 0 {
		t.Fatalf("read saw the uncommitted write: %d", v)
	}
	if _, err := g.Wait(idx, 1, 1, nil); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	v, _ = g.Read(lead, func(sm StateMachine) uint64 { return sm.(*mapMachine).m[5] })
	if v != 50 {
		t.Fatalf("read after commit = %d, want 50", v)
	}
}

// Killing the leader fails its unsettled waiters with ErrNotLeader
// instead of leaving them blocked.
func TestWaitFailsOnLeaderDeath(t *testing.T) {
	silent := &fakeRemote{id: 101}
	silent.mode.Store(frSilent)
	silent2 := &fakeRemote{id: 102}
	silent2.mode.Store(frSilent)
	g, err := NewGroup(GroupConfig{
		Replicas:   1,
		Remotes:    []Remote{silent, silent2},
		AckTimeout: time.Hour,
		NewMachine: func() StateMachine { return newMapMachine() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	lead, _ := g.Leader()
	idx, err := g.Append(lead, 1, 1, OpSet, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := g.Wait(idx, 1, 1, nil)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	g.KillReplica(lead.ID())
	select {
	case err := <-errc:
		if !errors.Is(err, ErrNotLeader) {
			t.Fatalf("Wait after leader death = %v, want ErrNotLeader", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait still blocked after the leader died")
	}
}
