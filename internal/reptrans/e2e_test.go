package reptrans

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ffwd/internal/replica"
	"ffwd/internal/replog"
)

// follower bundles one durable follower endpoint for e2e tests.
type follower struct {
	dir    string
	store  *replog.Store
	member *replica.Member
	srv    *Server
	sm     *tmach
}

func startFollower(t *testing.T, dir, addr string) *follower {
	t.Helper()
	st, rec, err := replog.Open(dir, replog.Options{})
	if err != nil {
		t.Fatalf("replog.Open(%s): %v", dir, err)
	}
	sm := newTmach()
	m := replica.NewMember(sm, 0, st)
	if err := m.Recover(rec.Snap, rec.Entries); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	srv := NewServer(ln, ServerConfig{Member: m, Store: st, Logf: t.Logf})
	return &follower{dir: dir, store: st, member: m, srv: srv, sm: sm}
}

func (f *follower) stop() {
	f.srv.Close()
	f.store.Close()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// End-to-end over real sockets: a pinned leader with two durable remote
// followers commits through quorum acks; a killed follower is survived
// (quorum holds), then restarted from its on-disk state and caught up —
// via snapshot install, since the leader has truncated the history the
// follower missed.
func TestPeerServerEndToEnd(t *testing.T) {
	base := t.TempDir()
	f1 := startFollower(t, filepath.Join(base, "f1"), "127.0.0.1:0")
	defer f1.stop()
	f2 := startFollower(t, filepath.Join(base, "f2"), "127.0.0.1:0")
	defer f2.stop()
	addr1 := f1.srv.Addr().String()

	leadStore, rec, err := replog.Open(filepath.Join(base, "leader"), replog.Options{})
	if err != nil {
		t.Fatalf("leader store: %v", err)
	}
	defer leadStore.Close()

	var g *replica.Group
	lateLeader := &LeaderRef{InitialTerm: rec.Meta.Boots}
	mkPeer := func(id int, addr string) *Peer {
		return NewPeer(PeerConfig{
			ID: id, Addr: addr, Leader: lateLeader,
			HeartbeatEvery: 20 * time.Millisecond,
			BackoffMin:     5 * time.Millisecond,
			BackoffMax:     100 * time.Millisecond,
			Seed:           uint64(id),
			Logf:           t.Logf,
		})
	}
	p1 := mkPeer(101, addr1)
	defer p1.Close()
	p2 := mkPeer(102, f2.srv.Addr().String())
	defer p2.Close()

	g, err = replica.NewGroup(replica.GroupConfig{
		Replicas:      1,
		SnapshotEvery: 8,
		NewMachine:    func() replica.StateMachine { return newTmach() },
		Storage:       leadStore,
		Recovered:     &replica.RecoveredLeader{Snap: rec.Snap, Entries: rec.Entries},
		Term:          rec.Meta.Boots,
		Remotes:       []replica.Remote{p1, p2},
		AckTimeout:    2 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	defer g.Close()
	lateLeader.Set(g)

	waitFor(t, "peers connected", func() bool { return p1.Healthy() && p2.Healthy() })

	lead, _ := g.Leader()
	propose := func(seq, key, val uint64) {
		t.Helper()
		if _, err := g.Propose(lead, 1, seq, replica.OpSet, key, val); err != nil {
			t.Fatalf("propose seq %d: %v", seq, err)
		}
	}
	for i := uint64(1); i <= 20; i++ {
		propose(i, i%7, i)
	}
	if st := g.Stats(); st.Commits != 20 || st.RemoteAcks == 0 {
		t.Fatalf("leader stats after burst: %+v", st)
	}
	// Followers converge to the full applied state via heartbeat pushes.
	waitFor(t, "followers applied 20", func() bool {
		_, _, a1 := f1.srv.MemberState()
		_, _, a2 := f2.srv.MemberState()
		return a1 == 20 && a2 == 20
	})

	// Kill follower 1. Quorum (2 of 3) still holds with the leader and
	// follower 2; proposals keep committing while p1 nacks fast.
	f1.stop()
	waitFor(t, "p1 unhealthy", func() bool { return !p1.Healthy() })
	for i := uint64(21); i <= 60; i++ {
		propose(i, i%7, i)
	}
	// SnapshotEvery=8 guarantees the leader truncated past index 20, so
	// follower 1's catch-up must go through a snapshot install.
	if st := g.Stats(); st.LogBase <= 20 {
		t.Fatalf("leader never truncated (base %d); snapshot path untested", st.LogBase)
	}

	// Restart follower 1 from its surviving directory, same address.
	f1b := startFollower(t, f1.dir, addr1)
	defer f1b.stop()
	if got := f1b.member.LastIndex(); got < 20 {
		t.Fatalf("follower restarted with log tail %d, want >= 20", got)
	}
	waitFor(t, "follower 1 caught up", func() bool {
		_, _, a := f1b.srv.MemberState()
		return a == 60
	})
	if st := f1b.srv.Stats(); st.SnapInstalls == 0 {
		t.Fatalf("catch-up skipped the snapshot path: %+v", st)
	}
	if p1.Stats().Sessions < 2 {
		t.Fatalf("peer never re-established a session: %+v", p1.Stats())
	}
	// The follower's applied state matches a fresh replay of the ops.
	want := map[uint64]uint64{}
	for i := uint64(1); i <= 60; i++ {
		want[i%7] = i
	}
	for k, v := range want {
		if f1b.sm.m[k] != v {
			t.Fatalf("follower state[%d] = %d, want %d", k, f1b.sm.m[k], v)
		}
	}
}

// A follower that misses nothing catches up by plain log replay — no
// snapshot install — after a restart.
func TestFollowerLogReplayCatchUp(t *testing.T) {
	base := t.TempDir()
	f := startFollower(t, filepath.Join(base, "f"), "127.0.0.1:0")
	defer f.stop()

	leadStore, rec, err := replog.Open(filepath.Join(base, "leader"), replog.Options{})
	if err != nil {
		t.Fatalf("leader store: %v", err)
	}
	defer leadStore.Close()
	lateLeader := &LeaderRef{InitialTerm: rec.Meta.Boots}
	p := NewPeer(PeerConfig{
		ID: 101, Addr: f.srv.Addr().String(), Leader: lateLeader,
		HeartbeatEvery: 20 * time.Millisecond,
		BackoffMin:     5 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
		Seed: 9, Logf: t.Logf,
	})
	defer p.Close()
	g, err := replica.NewGroup(replica.GroupConfig{
		Replicas:   1,
		NewMachine: func() replica.StateMachine { return newTmach() },
		Storage:    leadStore,
		Recovered:  &replica.RecoveredLeader{Snap: rec.Snap, Entries: rec.Entries},
		Term:       rec.Meta.Boots,
		Remotes:    []replica.Remote{p},
	})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	defer g.Close()
	lateLeader.Set(g)
	waitFor(t, "peer connected", func() bool { return p.Healthy() })
	lead, _ := g.Leader()
	for i := uint64(1); i <= 10; i++ {
		if _, err := g.Propose(lead, 2, i, replica.OpSet, i, i*3); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	waitFor(t, "follower applied 10", func() bool {
		_, _, a := f.srv.MemberState()
		return a == 10
	})
	if st := f.srv.Stats(); st.SnapInstalls != 0 {
		t.Fatalf("unexpected snapshot install: %+v", st)
	}
	if err := checkState(f.sm, 10); err != nil {
		t.Fatal(err)
	}
}

func checkState(sm *tmach, n uint64) error {
	for i := uint64(1); i <= n; i++ {
		if sm.m[i] != i*3 {
			return fmt.Errorf("state[%d] = %d, want %d", i, sm.m[i], i*3)
		}
	}
	return nil
}

// A follower on the library's default cadence snapshots and compacts
// on its own: after many times more writes than its state holds, its
// in-memory log and its WAL segment count stay bounded instead of
// growing with every write for the life of the process.
func TestFollowerSnapshotsBoundLogAndWAL(t *testing.T) {
	const keys, writers, writesEach = 16, 4, 500
	base := t.TempDir()
	st, rec, err := replog.Open(filepath.Join(base, "f"), replog.Options{Sync: replog.SyncNone, SegmentBytes: 1024})
	if err != nil {
		t.Fatalf("replog.Open: %v", err)
	}
	defer st.Close()
	m := replica.NewMember(newTmach(), replica.DefaultSnapshotEvery, st)
	if err := m.Recover(rec.Snap, rec.Entries); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, ServerConfig{Member: m, Store: st, Logf: t.Logf})
	defer srv.Close()

	ref := &LeaderRef{InitialTerm: 1}
	p := NewPeer(PeerConfig{ID: 101, Addr: srv.Addr().String(), Leader: ref, Seed: 3, Logf: t.Logf})
	defer p.Close()
	g, err := replica.NewGroup(replica.GroupConfig{
		Replicas:   1,
		NewMachine: func() replica.StateMachine { return newTmach() },
		Remotes:    []replica.Remote{p},
	})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	defer g.Close()
	ref.Set(g)
	waitFor(t, "peer connected", func() bool { return p.Healthy() })
	lead, _ := g.Leader()
	var wg sync.WaitGroup
	for w := uint64(1); w <= writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := uint64(1); i <= writesEach; i++ {
				if _, err := g.Propose(lead, w, i, replica.OpSet, (w*writesEach+i)%keys, i); err != nil {
					t.Errorf("writer %d propose %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	srv.Close() // no more frames: the member is ours to inspect

	if last := m.LastIndex(); last < writers*writesEach {
		t.Fatalf("follower log ends at %d, want >= %d", last, writers*writesEach)
	}
	if n := m.LogLen(); n > 2*replica.DefaultSnapshotEvery {
		t.Fatalf("follower holds %d live log entries after %d writes to %d keys; it never snapshots", n, writers*writesEach, keys)
	}
	fst := st.Stats()
	t.Logf("follower: %d live entries, %d snapshots, %d compactions, %d segments (%d rotations)",
		m.LogLen(), fst.Snapshots, fst.Compactions, fst.Segments, fst.Rotations)
	if fst.Snapshots == 0 || fst.Compactions == 0 {
		t.Fatalf("follower store took %d snapshots and %d compactions", fst.Snapshots, fst.Compactions)
	}
	if fst.Segments > 12 {
		t.Fatalf("follower WAL holds %d segments after %d rotations; compaction is not keeping up", fst.Segments, fst.Rotations)
	}
}
