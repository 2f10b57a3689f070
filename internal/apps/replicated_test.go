package apps

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"ffwd/internal/core"
	"ffwd/internal/fault"
	"ffwd/internal/replica"
)

// rkvSeeds returns the seeds the replicated suites run under: the single
// FFWD_CHAOS_SEED if set (the `make replica-chaos` contract), otherwise
// the checked-in defaults.
func rkvSeeds(t *testing.T) []uint64 {
	t.Helper()
	seeds, err := fault.SeedsFromEnv(5, 9, 13)
	if err != nil {
		t.Fatal(err)
	}
	return seeds
}

// rkvStores returns every live member's KVStore for state comparison.
func rkvStores(r *ReplicatedKV) []*KVStore {
	g := r.Group()
	out := make([]*KVStore, g.Members())
	for i := 0; i < g.Members(); i++ {
		out[i] = g.Member(i).SM().(*kvMachine).s
	}
	return out
}

// TestReplicatedKVBasic: with no faults, the replicated store behaves
// like the plain delegated one — and every write lands on every member
// before the client's ack returns.
func TestReplicatedKVBasic(t *testing.T) {
	r, err := NewReplicatedKV(64, ReplicatedConfig{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	k := r.NewClient()
	defer k.Close()

	if err := k.Set(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := k.Set(2, 20); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := k.Get(1); err != nil || !ok || v != 10 {
		t.Fatalf("Get(1) = %d,%v,%v; want 10,true,nil", v, ok, err)
	}
	if _, ok, err := k.Get(99); err != nil || ok {
		t.Fatalf("Get(99) hit; want miss (err=%v)", err)
	}
	if present, err := k.Delete(1); err != nil || !present {
		t.Fatalf("Delete(1) = %v,%v; want true,nil", present, err)
	}
	if present, err := k.Delete(1); err != nil || present {
		t.Fatalf("second Delete(1) = %v,%v; want false,nil", present, err)
	}
	if n, err := k.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d,%v; want 1,nil", n, err)
	}

	st := r.Group().Stats()
	if st.Commits != 4 {
		t.Fatalf("Commits = %d, want 4 (2 sets + 2 deletes)", st.Commits)
	}
	// The acks above imply quorum, and the commit-push implies every
	// caught-up member applied: all three stores must agree byte for
	// byte (including LRU order).
	stores := rkvStores(r)
	want := stores[0].EncodeState()
	for i, s := range stores[1:] {
		if got := s.EncodeState(); !bytes.Equal(got, want) {
			t.Fatalf("member %d state diverged from member 0", i+1)
		}
		if v, ok := s.Peek(2); !ok || v != 20 {
			t.Fatalf("member %d missing replicated key 2", i+1)
		}
		if _, ok := s.Peek(1); ok {
			t.Fatalf("member %d resurrected deleted key 1", i+1)
		}
	}
}

// TestReplicatedFailoverLedgerAnswersRetry is the acceptance path, run
// deterministically per seed: a seeded kill fires after the leader
// executes and commits a known Set but before its response flushes
// ("mid-flush"); the supervisor hands the crash to the group, a follower
// is promoted, and the client's retried write must be answered from the
// replicated ledger — never re-executed.
func TestReplicatedFailoverLedgerAnswersRetry(t *testing.T) {
	for _, seed := range rkvSeeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			killAt := 3 + seed%5 // every op below is a Set, so the kill lands on Set #killAt
			inj := fault.New(fault.Plan{Seed: seed, KillAtOp: killAt})
			r, err := NewReplicatedKV(64, ReplicatedConfig{
				Replicas:   3,
				Core:       core.Config{MaxClients: 1, Hooks: inj},
				Supervisor: core.SupervisorConfig{Interval: 200 * time.Microsecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			k := r.NewClientPolicy(RKVPolicy{PerTry: 2 * time.Millisecond})
			defer k.Close()

			nSets := killAt + 2 // a couple of post-failover writes ride on the new leader
			for i := uint64(1); i <= nSets; i++ {
				if err := k.Set(i, 100+i); err != nil {
					t.Fatalf("Set(%d): %v", i, err)
				}
			}

			st := r.Group().Stats()
			if c := inj.Counts().Kills; c != 1 {
				t.Fatalf("Kills = %d, want exactly 1", c)
			}
			if st.Failovers != 1 {
				t.Fatalf("Failovers = %d, want 1", st.Failovers)
			}
			if st.Term != 2 {
				t.Fatalf("Term = %d, want 2 after one election", st.Term)
			}
			if st.LedgerHits == 0 {
				t.Fatal("retry of the killed Set was not answered from the replicated ledger")
			}
			// Exactly-once: the killed Set committed before the crash, so
			// its retry must not re-commit — one commit per Set issued.
			if st.Commits != nSets {
				t.Fatalf("Commits = %d, want %d (ledger dedup must not re-commit)", st.Commits, nSets)
			}
			if st.ApplyDups != 0 {
				t.Fatalf("ApplyDups = %d, want 0 (no duplicate entries should reach apply)", st.ApplyDups)
			}
			// Every write — including the one whose first ack was lost in
			// the crash — is visible on the new leader.
			for i := uint64(1); i <= nSets; i++ {
				v, ok, err := k.Get(i)
				if err != nil || !ok || v != 100+i {
					t.Fatalf("Get(%d) = %d,%v,%v; want %d,true,nil", i, v, ok, err, 100+i)
				}
			}
		})
	}
}

// TestReplicatedSnapshotCatchUp: a follower that died and lost its state
// is revived behind the leader's truncated log, so catch-up must go
// snapshot-then-suffix; afterwards its store matches the leader's byte
// for byte, LRU order included.
func TestReplicatedSnapshotCatchUp(t *testing.T) {
	r, err := NewReplicatedKV(256, ReplicatedConfig{Replicas: 3, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	g := r.Group()
	lead, _ := g.Leader()
	victim := (lead.ID() + 1) % g.Members()
	g.KillReplica(victim)

	k := r.NewClient()
	defer k.Close()
	for i := 0; i < 50; i++ {
		if err := k.Set(uint64(i%10), uint64(i+1)); err != nil {
			t.Fatalf("Set #%d: %v", i, err)
		}
	}
	st := g.Stats()
	if st.Snapshots == 0 || st.EntriesTruncated == 0 {
		t.Fatalf("snapshots=%d truncated=%d; the leader never compacted its log", st.Snapshots, st.EntriesTruncated)
	}

	if err := g.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if ok, err := g.Sync(victim); err != nil || !ok {
		t.Fatalf("Sync(%d) = %v,%v; want true,nil", victim, ok, err)
	}
	st = g.Stats()
	if st.SnapshotInstalls == 0 {
		t.Fatal("revived follower caught up without a snapshot install; truncation made that impossible")
	}
	leadState := lead.SM().(*kvMachine).s.EncodeState()
	gotState := g.Member(victim).SM().(*kvMachine).s.EncodeState()
	if !bytes.Equal(gotState, leadState) {
		t.Fatal("revived follower's store differs from the leader's")
	}
}

// TestReplicatedKVStateCodecRoundTrip pins the snapshot codec: an
// encode/restore round trip preserves contents AND eviction order, which
// is what keeps replicas deterministic under capacity pressure.
func TestReplicatedKVStateCodecRoundTrip(t *testing.T) {
	src := NewKVStore(4)
	for i := uint64(1); i <= 4; i++ {
		src.Set(i, i*10)
	}
	src.Get(1) // promote key 1: eviction order is now 2,3,4,1

	dst := NewKVStore(4)
	dst.RestoreState(src.EncodeState())
	if !bytes.Equal(dst.EncodeState(), src.EncodeState()) {
		t.Fatal("restore did not reproduce the encoded image")
	}
	// Both stores must now evict the same victim.
	src.Set(5, 50)
	dst.Set(5, 50)
	for _, s := range []*KVStore{src, dst} {
		if _, ok := s.Peek(2); ok {
			t.Fatal("LRU victim should have been key 2")
		}
		if _, ok := s.Peek(1); !ok {
			t.Fatal("promoted key 1 wrongly evicted: LRU order was not preserved")
		}
	}
	if !bytes.Equal(dst.EncodeState(), src.EncodeState()) {
		t.Fatal("stores diverged after identical post-restore writes")
	}
}

// slowAckRemote is a healthy cross-process follower 50 ms away: it acks
// every Replicate after a fixed delay, off the caller's goroutine.
type slowAckRemote struct {
	id    int
	delay time.Duration
}

func (r *slowAckRemote) ID() int       { return r.id }
func (r *slowAckRemote) Healthy() bool { return true }
func (r *slowAckRemote) Replicate(index, commit uint64, done chan<- replica.RemoteAck) {
	if done == nil {
		return
	}
	time.AfterFunc(r.delay, func() { done <- replica.RemoteAck{ID: r.id, Index: index, OK: true} })
}

// TestReplicatedReadNotBehindPendingWrite pins the head-of-line fix: a
// write waiting 50 ms for its quorum acks holds neither the delegation
// server nor the group lock, so another client's read returns at once.
// When the delegated write itself waited for quorum, the read queued
// behind it for the full delay.
func TestReplicatedReadNotBehindPendingWrite(t *testing.T) {
	const delay = 50 * time.Millisecond
	g, err := replica.NewGroup(replica.GroupConfig{
		Replicas: 1,
		Remotes: []replica.Remote{
			&slowAckRemote{id: 101, delay: delay},
			&slowAckRemote{id: 102, delay: delay},
		},
		NewMachine: func() replica.StateMachine { return NewKVMachine(64) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &ReplicatedKV{g: g, cfg: ReplicatedConfig{Replicas: 1, Core: core.Config{MaxClients: 2}}, closeCh: make(chan struct{})}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	writer, reader := r.NewClient(), r.NewClient()
	defer writer.Close()
	defer reader.Close()
	if err := writer.Set(2, 20); err != nil {
		t.Fatal(err)
	}

	setDone := make(chan error, 1)
	go func() { setDone <- writer.Set(1, 10) }()
	rkvWaitFor(t, "the write to be appended", func() bool { return g.Stats().Proposals >= 2 })
	start := time.Now()
	v, ok, err := reader.Get(2)
	took := time.Since(start)
	if err != nil || !ok || v != 20 {
		t.Fatalf("Get(2) = %d,%v,%v; want 20,true,nil", v, ok, err)
	}
	if took > delay/2 {
		t.Fatalf("read took %v while a write waited on its %v quorum: it queued behind the write", took, delay)
	}
	select {
	case err := <-setDone:
		t.Fatalf("the write settled (err %v) before the read returned; the test proves nothing", err)
	default:
	}
	if err := <-setDone; err != nil {
		t.Fatalf("Set(1): %v", err)
	}
	if v, ok, err := reader.Get(1); err != nil || !ok || v != 10 {
		t.Fatalf("Get(1) after its commit = %d,%v,%v; want 10,true,nil", v, ok, err)
	}
}
