// Durable-member tests: replica.Member wired to a replog.Store must
// replay snapshot + WAL suffix on restart instead of starting wiped.
// They live in an external test package because replog imports replica.
package replica_test

import (
	"encoding/binary"
	"sort"
	"testing"

	"ffwd/internal/replica"
	"ffwd/internal/replog"
)

// dmach is a deterministic map state machine for durability tests.
type dmach struct {
	m       map[uint64]uint64
	applies int
}

func newDmach() *dmach { return &dmach{m: make(map[uint64]uint64)} }

func (s *dmach) Apply(e replica.Entry) uint64 {
	s.applies++
	switch e.Kind {
	case replica.OpSet:
		s.m[e.Key] = e.Val
		return 0
	case replica.OpDel:
		if _, ok := s.m[e.Key]; ok {
			delete(s.m, e.Key)
			return 1
		}
		return 0
	}
	return ^uint64(0)
}

func (s *dmach) Snapshot() []byte {
	keys := make([]uint64, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf := make([]byte, 0, 16*len(keys))
	var b [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(b[:], k)
		buf = append(buf, b[:]...)
		binary.LittleEndian.PutUint64(b[:], s.m[k])
		buf = append(buf, b[:]...)
	}
	return buf
}

func (s *dmach) Restore(data []byte) {
	s.m = make(map[uint64]uint64, len(data)/16)
	for off := 0; off+16 <= len(data); off += 16 {
		s.m[binary.LittleEndian.Uint64(data[off:])] = binary.LittleEndian.Uint64(data[off+8:])
	}
}

func openMember(t *testing.T, dir string, snapEvery uint64) (*replica.Member, *dmach, *replog.Store, replog.Recovered) {
	t.Helper()
	st, rec, err := replog.Open(dir, replog.Options{})
	if err != nil {
		t.Fatalf("replog.Open: %v", err)
	}
	sm := newDmach()
	m := replica.NewMember(sm, snapEvery, st)
	if err := m.Recover(rec.Snap, rec.Entries); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return m, sm, st, rec
}

func dEntry(i, term, key, val uint64) replica.Entry {
	return replica.Entry{Index: i, Term: term, ClientID: 1, Seq: i, Kind: replica.OpSet, Key: key, Val: val}
}

// A follower that appended and applied entries resumes from disk with
// the same log and, after the leader re-pushes the commit cursor, the
// same state — not wiped.
func TestMemberDurableRestart(t *testing.T) {
	dir := t.TempDir()
	m, sm, st, _ := openMember(t, dir, 0)
	var ents []replica.Entry
	for i := uint64(1); i <= 10; i++ {
		ents = append(ents, dEntry(i, 1, i, i*100))
	}
	ok, _, err := m.HandleAppend(0, 0, ents, 7)
	if err != nil || !ok {
		t.Fatalf("HandleAppend = %v, %v", ok, err)
	}
	if m.Commit() != 7 || sm.applies != 7 {
		t.Fatalf("commit=%d applies=%d, want 7/7", m.Commit(), sm.applies)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	m2, sm2, st2, rec := openMember(t, dir, 0)
	defer st2.Close()
	if rec.Snap != nil || len(rec.Entries) != 10 {
		t.Fatalf("recovered snap=%v entries=%d, want nil/10", rec.Snap, len(rec.Entries))
	}
	if m2.LastIndex() != 10 {
		t.Fatalf("LastIndex = %d, want 10", m2.LastIndex())
	}
	// Commit knowledge is not persisted; the leader's next (empty)
	// append re-teaches it and the member replays to the same state.
	ok, _, err = m2.HandleAppend(10, 1, nil, 10)
	if err != nil || !ok {
		t.Fatalf("commit push = %v, %v", ok, err)
	}
	if sm2.applies != 10 || len(sm2.m) != 10 || sm2.m[3] != 300 {
		t.Fatalf("restart state: applies=%d m=%v", sm2.applies, sm2.m)
	}
}

// A conflict truncation must hit the WAL too: after restart the member
// holds the leader's overwrite, not its own divergent tail.
func TestMemberDurableConflictTruncate(t *testing.T) {
	dir := t.TempDir()
	m, _, st, _ := openMember(t, dir, 0)
	var ents []replica.Entry
	for i := uint64(1); i <= 5; i++ {
		ents = append(ents, dEntry(i, 1, i, i))
	}
	if ok, _, err := m.HandleAppend(0, 0, ents, 2); !ok || err != nil {
		t.Fatalf("seed append: %v %v", ok, err)
	}
	// New leader term overwrites 3..4 (entry 5 is simply dropped).
	over := []replica.Entry{dEntry(3, 2, 30, 30), dEntry(4, 2, 40, 40)}
	if ok, _, err := m.HandleAppend(2, 1, over, 4); !ok || err != nil {
		t.Fatalf("overwrite append: %v %v", ok, err)
	}
	if m.LastIndex() != 4 {
		t.Fatalf("LastIndex = %d, want 4", m.LastIndex())
	}
	st.Close()

	m2, sm2, st2, rec := openMember(t, dir, 0)
	defer st2.Close()
	if len(rec.Entries) != 4 {
		t.Fatalf("recovered %d entries, want 4", len(rec.Entries))
	}
	for i, want := range []uint64{1, 1, 2, 2} {
		if rec.Entries[i].Term != want {
			t.Fatalf("entry %d term %d, want %d", i+1, rec.Entries[i].Term, want)
		}
	}
	if ok, _, err := m2.HandleAppend(4, 2, nil, 4); !ok || err != nil {
		t.Fatalf("commit push: %v %v", ok, err)
	}
	if sm2.m[30] != 30 || sm2.m[40] != 40 {
		t.Fatalf("overwritten entries lost: %v", sm2.m)
	}
	if _, stale := sm2.m[3]; stale {
		t.Fatalf("divergent entry survived restart: %v", sm2.m)
	}
}

// Member-initiated snapshots persist and compact durably: restart
// recovers snapshot + suffix, and the state machine replays only the
// suffix, not history.
func TestMemberDurableSnapshotRestart(t *testing.T) {
	dir := t.TempDir()
	m, _, st, _ := openMember(t, dir, 8)
	for i := uint64(1); i <= 30; i++ {
		if ok, _, err := m.HandleAppend(i-1, 1, []replica.Entry{dEntry(i, 1, i%5, i)}, i); !ok || err != nil {
			t.Fatalf("append %d: %v %v", i, ok, err)
		}
	}
	stats := st.Stats()
	if stats.Snapshots == 0 {
		t.Fatalf("no durable snapshots after 30 applies at cadence 8: %+v", stats)
	}
	st.Close()

	m2, sm2, st2, rec := openMember(t, dir, 8)
	defer st2.Close()
	if rec.Snap == nil {
		t.Fatalf("restart recovered no snapshot")
	}
	if ok, _, err := m2.HandleAppend(30, 1, nil, 30); !ok || err != nil {
		t.Fatalf("commit push: %v %v", ok, err)
	}
	if m2.AppliedIndex() != 30 {
		t.Fatalf("applied=%d, want 30", m2.AppliedIndex())
	}
	// Replay cost is bounded by the suffix, not history.
	if sm2.applies > 30-int(rec.Snap.LastIndex) {
		t.Fatalf("replayed %d entries despite snapshot at %d", sm2.applies, rec.Snap.LastIndex)
	}
	if sm2.m[0] != 30 || sm2.m[4] != 29 {
		t.Fatalf("state after restart: %v", sm2.m)
	}
}

// The pinned-leader group recovery path: a leader backed by storage
// resumes from its durable image, commits its whole log, and its
// replicated ledger still answers a client retry without re-execution.
func TestPinnedLeaderGroupRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func(term uint64) (*replica.Group, *replog.Store) {
		st, rec, err := replog.Open(dir, replog.Options{})
		if err != nil {
			t.Fatalf("replog.Open: %v", err)
		}
		g, err := replica.NewGroup(replica.GroupConfig{
			Replicas:   1,
			NewMachine: func() replica.StateMachine { return newDmach() },
			Storage:    st,
			Recovered:  &replica.RecoveredLeader{Snap: rec.Snap, Entries: rec.Entries},
			Term:       term,
		})
		if err != nil {
			t.Fatalf("NewGroup: %v", err)
		}
		return g, st
	}

	g, st := open(1)
	lead, _ := g.Leader()
	for i := uint64(1); i <= 5; i++ {
		if _, err := g.Propose(lead, 77, i, replica.OpSet, i, i*2); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	ret, err := g.Propose(lead, 77, 6, replica.OpDel, 3, 0)
	if err != nil || ret != 1 {
		t.Fatalf("delete = %d, %v", ret, err)
	}
	g.Close()
	st.Close()

	g2, st2 := open(2)
	defer st2.Close()
	defer g2.Close()
	lead2, _ := g2.Leader()
	stats := g2.Stats()
	if stats.CommitIndex != 6 || stats.LastApplied != 6 {
		t.Fatalf("recovered commit=%d applied=%d, want 6/6", stats.CommitIndex, stats.LastApplied)
	}
	if stats.Term != 2 {
		t.Fatalf("term = %d, want the boot-bumped 2", stats.Term)
	}
	// The client retries its last op against the reborn leader: the
	// replicated ledger must answer it, not re-execute (a re-executed
	// delete of the already-deleted key would return 0).
	ret, err = g2.Propose(lead2, 77, 6, replica.OpDel, 3, 0)
	if err != nil || ret != 1 {
		t.Fatalf("retry after restart = %d, %v (want ledger-answered 1)", ret, err)
	}
	if st := g2.Stats(); st.LedgerHits != 1 {
		t.Fatalf("LedgerHits = %d, want 1", st.LedgerHits)
	}
	sm := lead2.SM().(*dmach)
	if sm.m[1] != 2 || sm.m[5] != 10 {
		t.Fatalf("recovered state: %v", sm.m)
	}
	if _, ok := sm.m[3]; ok {
		t.Fatalf("deleted key resurrected: %v", sm.m)
	}
}
