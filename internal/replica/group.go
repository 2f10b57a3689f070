package replica

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ffwd/internal/obs"
)

// Remote is a cross-process follower as the leader sees it, satisfied
// structurally by reptrans.Peer. Implementations own their replication
// progress (next/match index, reconnect, retries); the Group only asks
// for outcomes.
type Remote interface {
	// ID returns the remote's stable member id (disjoint from in-process
	// member indices by convention; used only for reporting).
	ID() int
	// Replicate asks the remote to hold the leader's log durably through
	// index, carrying the current commit cursor. Exactly one RemoteAck is
	// delivered to done — OK when the remote durably matched at least
	// index, not-OK when it definitively cannot right now (disconnected,
	// timed out). A nil done is fire-and-forget: best-effort shipping of
	// new entries or a commit bump, no ack wanted.
	Replicate(index, commit uint64, done chan<- RemoteAck)
	// Healthy reports whether the link is currently usable (connected
	// and inside its heartbeat window). Stats only; Replicate is the
	// authority on whether an append lands.
	Healthy() bool
}

// RemoteAck is a remote follower's answer to one Replicate call.
type RemoteAck struct {
	ID    int
	Index uint64 // highest durably matched index; valid when OK
	OK    bool
}

// RecoveredLeader is the durable image a pinned leader resumes from
// (what replog.Open recovered, minus the storage-specific fields).
type RecoveredLeader struct {
	Snap    *Snapshot
	Entries []Entry
}

// DefaultSnapshotEvery is the minimum snapshot cadence used when a
// group is configured with SnapshotEvery 0.
const DefaultSnapshotEvery = 64

// GroupConfig configures a replica group.
type GroupConfig struct {
	// Replicas is the in-process member count including the leader.
	// Quorum is a majority of Replicas+len(Remotes); 3 in-process members
	// is the original single-process shape, 1 plus two Remotes the
	// cross-process one, and a bare 1 degenerates to unreplicated
	// delegation.
	Replicas int
	// SnapshotEvery is the minimum snapshot cadence. A replica takes a
	// snapshot and truncates its log prefix once the entries applied
	// past its last snapshot reach max(SnapshotEvery, len(last snapshot
	// state)/32), so snapshot work per write stays constant as the
	// state grows. 0 means DefaultSnapshotEvery.
	SnapshotEvery uint64
	// NewMachine builds one member's state machine instance. Called once
	// per member at construction and again when a wiped member restarts.
	NewMachine func() StateMachine
	// Hooks injects replication faults (partitions, slow followers).
	// Nil disables injection.
	Hooks Hooks
	// Trace receives KindFailover events on promotion. Nil disables.
	Trace obs.Tracer

	// Storage, when non-nil, durably backs the leader member (member 0),
	// which then runs in pinned-leader mode: it recovers from Recovered,
	// commits its entire durable log (safe — leadership is pinned to this
	// process, so no conflicting entry can ever have committed anywhere
	// else), and never cedes leadership to an in-process member.
	Storage Storage
	// Recovered is the durable image to resume the leader from. Only
	// read when Storage is set.
	Recovered *RecoveredLeader
	// Term forces the initial term. Pinned-leader mode passes the
	// persisted boot counter so every process lifetime is a fresh term
	// and stale followers from the previous life are fenced. 0 means 1.
	Term uint64
	// Remotes are cross-process followers counted toward quorum.
	Remotes []Remote
	// AckTimeout bounds how long one commit batch waits for remote
	// quorum acks (default 2s). On expiry the batch's writes fail with
	// ErrNoQuorum; the entries stay in the log and may commit later,
	// exactly like an in-process quorum failure.
	AckTimeout time.Duration
}

// Stats is a point-in-time counter snapshot of a group.
type Stats struct {
	Term          uint64
	Epoch         uint64
	LeaderID      int
	Replicas      int // total membership: in-process + remote
	AliveReplicas int // live in-process members + healthy remotes
	CommitIndex   uint64
	LastApplied   uint64
	LogBase       uint64
	LogLast       uint64

	Proposals        uint64 // writes entering Append
	Commits          uint64 // entries committed and applied by the leader (duplicates excluded)
	Batches          uint64 // group commits that reached quorum
	LedgerHits       uint64 // retries answered from the replicated ledger
	ApplyDups        uint64 // duplicate entries fenced at apply time
	NoQuorum         uint64 // entries in batches that could not commit
	AppendAttempts   uint64 // leader→follower append RPC equivalents
	AppendDrops      uint64 // appends dropped by partition injection
	Snapshots        uint64 // snapshots taken across all members
	SnapshotInstalls uint64 // snapshot transfers into lagging members
	EntriesTruncated uint64 // log entries dropped by prefix truncation
	Failovers        uint64 // successful promotions
	Restarts         uint64 // wiped members revived
	RemoteAcks       uint64 // remote appends acked in time
	RemoteNacks      uint64 // remote appends refused or timed out
}

// Group is a replica set for one delegation shard. One mutex guards all
// member state. The leader's delegation server takes it briefly to
// append a write or read the state machine; the committer takes it to
// cut a batch and to apply one, and drops it for the WAL sync and the
// remote quorum wait. The committer is a role, not a goroutine: a
// writer blocked in Wait whose entry is unsettled takes it when no batch
// is running, so a write that finds the pipeline idle commits on its
// own goroutine with no hand-off, and writes appended meanwhile share
// the next batch.
type Group struct {
	cfg        GroupConfig
	ackTimeout time.Duration

	mu        sync.Mutex
	members   []*Replica
	nextIndex []uint64 // leader's view: next log index to send to each member

	// Commit pipeline, guarded by mu. The leader's server goroutine
	// appends entries past settled; the committer moves each batch
	// (settled, last] through WAL sync, quorum and apply.
	durable    uint64        // leader's highest synced index; nothing past it is shipped
	settled    uint64        // highest index whose batch completed, committed or not
	failErr    error         // why the latest uncommitted batch failed
	committing bool          // a batch is running; its runner holds the committer role
	notify     chan struct{} // closed and replaced when a batch settles or leadership moves
	closed     bool
	closeCh    chan struct{} // closed by Close: cuts a running batch's quorum wait short

	// leaderID/term/epoch are atomics so Term and Epoch can be read
	// without the lock (transport peers, handle rebuilds).
	leaderID atomic.Int32
	term     atomic.Uint64
	epoch    atomic.Uint64

	appendAttempts atomic.Uint64

	nProposals   uint64
	nCommits     uint64
	nBatches     uint64
	nLedgerHits  uint64
	nNoQuorum    uint64
	nAppendDrops uint64
	nFailovers   uint64
	nRestarts    uint64
	nRemoteAcks  atomic.Uint64
	nRemoteNacks atomic.Uint64
}

// NewGroup builds a group with cfg.Replicas in-process members, member 0
// leading. With cfg.Storage set, member 0 resumes from cfg.Recovered and
// commits its recovered log (pinned-leader mode).
func NewGroup(cfg GroupConfig) (*Group, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.NewMachine == nil {
		panic("replica: GroupConfig.NewMachine is required")
	}
	g := &Group{
		cfg:        cfg,
		ackTimeout: cfg.AckTimeout,
		notify:     make(chan struct{}),
		closeCh:    make(chan struct{}),
	}
	if g.ackTimeout <= 0 {
		g.ackTimeout = 2 * time.Second
	}
	g.members = make([]*Replica, cfg.Replicas)
	g.nextIndex = make([]uint64, cfg.Replicas)
	for i := range g.members {
		g.members[i] = &Replica{
			id: i,
			Member: Member{
				sm:            cfg.NewMachine(),
				ledger:        make(map[uint64]Applied),
				snapshotEvery: cfg.SnapshotEvery,
			},
		}
		g.nextIndex[i] = 1
	}
	if cfg.Term > 0 {
		g.term.Store(cfg.Term)
	} else {
		g.term.Store(1)
	}
	if cfg.Storage != nil {
		lead := g.members[0]
		lead.store = cfg.Storage
		if rec := cfg.Recovered; rec != nil {
			if err := lead.Recover(rec.Snap, rec.Entries); err != nil {
				return nil, err
			}
			// Pinned leadership makes the whole durable log committable:
			// no other process can ever have led this shard, so nothing
			// conflicting was ever acknowledged elsewhere.
			if err := lead.CommitTo(lead.log.Last()); err != nil {
				return nil, err
			}
			if err := lead.saveSnapshot(lead.takeUnsaved()); err != nil {
				return nil, err
			}
		}
		if err := cfg.Storage.SaveTerm(g.term.Load()); err != nil {
			return nil, err
		}
		for i := range g.nextIndex {
			g.nextIndex[i] = lead.log.Last() + 1
		}
		g.durable, g.settled = lead.log.Last(), lead.log.Last()
	}
	return g, nil
}

// Close fails every unsettled write with ErrClosed and starts no
// further batch. It returns once a running batch no longer touches the
// leader's storage, so the caller may close it. Idempotent.
func (g *Group) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.closed {
		g.closed = true
		close(g.closeCh)
		g.broadcastLocked()
	}
	for g.committing {
		g.waitLocked()
	}
}

// Quorum returns the commit threshold: a majority of the full membership
// — in-process and remote, dead members still counting toward the
// denominator, as in raft.
func (g *Group) Quorum() int { return (g.cfg.Replicas+len(g.cfg.Remotes))/2 + 1 }

// Members returns the in-process member count.
func (g *Group) Members() int { return g.cfg.Replicas }

// Member returns in-process member i. The pointer is stable for the
// group's life; the state behind it is guarded by the group.
func (g *Group) Member(i int) *Replica { return g.members[i] }

// Leader returns the current leader replica and the leadership epoch.
// The epoch increments on every promotion; callers compare it to decide
// whether a cached handle is stale.
func (g *Group) Leader() (*Replica, uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.members[g.leaderID.Load()], g.epoch.Load()
}

// Term returns the current leadership term.
func (g *Group) Term() uint64 { return g.term.Load() }

// Epoch returns the promotion epoch (0 until the first failover).
func (g *Group) Epoch() uint64 { return g.epoch.Load() }

// Read runs read against leader r's state machine under the group lock
// — the committer applies batches concurrently — and returns its
// result, or ErrNotLeader when r no longer leads.
func (g *Group) Read(r *Replica, read func(StateMachine) uint64) (uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r.dead || g.members[g.leaderID.Load()] != r {
		return 0, ErrNotLeader
	}
	return read(r.sm), nil
}

// Append is the delegation-server half of a replicated write on behalf
// of leader r. It checks leadership, answers a retry of an already
// applied (clientID, seq) from the replicated ledger, and otherwise
// appends the entry to the leader's in-memory log. It makes no syscall,
// wakes no goroutine and waits for nothing: it returns the index to pass
// to Wait, which runs or joins the group commit that syncs, replicates
// and applies the entry. An entry no one waits for commits with the
// next batch.
func (g *Group) Append(r *Replica, clientID, seq uint64, kind Op, key, val uint64) (uint64, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return 0, ErrClosed
	}
	if r.dead || g.members[g.leaderID.Load()] != r {
		g.mu.Unlock()
		return 0, ErrNotLeader
	}
	g.nProposals++
	// Exactly-once across promotion and retry: a client re-delegating a
	// seq that already committed is answered from the replicated ledger
	// without re-execution. Its Wait resolves at once from the ledger.
	if a, ok := r.ledger[clientID]; ok && a.Seq == seq {
		g.nLedgerHits++
		idx := r.lastApplied
		g.mu.Unlock()
		return idx, nil
	}
	idx := r.log.Last() + 1
	r.log.Append(Entry{
		Index:    idx,
		Term:     g.term.Load(),
		ClientID: clientID,
		Seq:      seq,
		Kind:     kind,
		Key:      key,
		Val:      val,
	})
	g.mu.Unlock()
	return idx, nil
}

// Wait blocks until the write (clientID, seq) that Append placed at
// index settles and returns its applied result. While the entry is
// unsettled and no batch runs, Wait runs the next batch itself (see
// runBatchLocked); otherwise it sleeps until the running batch settles.
// It fails with ErrNoQuorum when the entry's batch could not reach
// quorum (the entry stays in the log and may commit later; the client
// retries, and the ledger keeps the retry exactly-once), with
// ErrNotLeader when leadership moved before the entry committed, and
// with ErrClosed when the group closes or cancel fires. A nil cancel
// never fires; a Wait running a batch notices cancel once the batch
// settles, which the ack timeout bounds.
func (g *Group) Wait(index, clientID, seq uint64, cancel <-chan struct{}) (uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		ret, done, err := g.resolveLocked(index, clientID, seq)
		if done {
			return ret, err
		}
		if !g.committing {
			g.runBatchLocked()
			continue
		}
		ch := g.notify
		g.mu.Unlock()
		select {
		case <-ch:
		case <-cancel:
			g.mu.Lock() // for the deferred unlock
			return 0, ErrClosed
		}
		g.mu.Lock()
	}
}

// Propose is Append followed by Wait, for callers that are not
// delegated functions and may block (tests, probes, tools).
func (g *Group) Propose(r *Replica, clientID, seq uint64, kind Op, key, val uint64) (uint64, error) {
	idx, err := g.Append(r, clientID, seq, kind, key, val)
	if err != nil {
		return 0, err
	}
	return g.Wait(idx, clientID, seq, nil)
}

// resolveLocked decides whether the write (clientID, seq) appended at
// index has settled, judged against the current leader's state.
func (g *Group) resolveLocked(index, clientID, seq uint64) (ret uint64, done bool, err error) {
	if g.closed {
		return 0, true, ErrClosed
	}
	lead := g.members[g.leaderID.Load()]
	// The ledger is applied, hence committed, state: a match is the
	// exactly-once answer whichever log entry carried it.
	if a, ok := lead.ledger[clientID]; ok && a.Seq >= seq {
		if a.Seq == seq {
			return a.Ret, true, nil
		}
		return 0, true, fmt.Errorf("replica: client %d seq %d superseded by seq %d", clientID, seq, a.Seq)
	}
	if lead.dead {
		return 0, true, ErrNotLeader
	}
	// An index already applied without this write, or a slot holding
	// another entry, means the write was lost with a deposed leader's
	// log; so does an entry from an earlier term, which only a future
	// batch of this term could commit.
	e, ok := lead.log.At(index)
	if index <= lead.lastApplied || !ok || e.ClientID != clientID || e.Seq != seq || e.Term != g.term.Load() {
		return 0, true, ErrNotLeader
	}
	if index <= g.settled {
		if g.failErr == nil {
			return 0, true, ErrNoQuorum
		}
		return 0, true, g.failErr
	}
	return 0, false, nil
}

// broadcastLocked wakes every Wait and drain to re-check its condition.
func (g *Group) broadcastLocked() {
	close(g.notify)
	g.notify = make(chan struct{})
}

// waitLocked sleeps, with the lock released, until the next broadcast.
func (g *Group) waitLocked() {
	ch := g.notify
	g.mu.Unlock()
	<-ch
	g.mu.Lock()
}

// runBatchLocked takes the committer role and runs one group commit end
// to end, then releases the role and wakes every waiter. It is called
// with g.mu held and the role free, and returns with g.mu held; it does
// nothing when there is no batch to run.
//
//  1. take every entry the leader appended since the last batch;
//  2. write and sync them to the leader's WAL once, outside the lock;
//  3. replicate through the batch's last index — in-process members
//     under the lock, remotes by one Replicate each and a quorum wait
//     outside it;
//  4. commit and apply under the lock, push the commit to caught-up
//     in-process followers, and release the batch's waiters;
//  5. persist a snapshot the apply encoded, then compact the WAL,
//     outside the lock, before the next batch may start.
func (g *Group) runBatchLocked() {
	lead := g.members[g.leaderID.Load()]
	last := lead.log.Last()
	if g.closed || lead.dead || last <= g.settled {
		return
	}
	g.committing = true
	first := g.settled + 1
	term := g.term.Load()
	var batch []Entry
	if lead.store != nil {
		// Copied: Append keeps growing the log while the lock is down.
		batch = append([]Entry(nil), lead.log.From(g.durable+1)...)
	}
	g.mu.Unlock()

	var err error
	if len(batch) > 0 {
		if err = lead.store.AppendEntries(batch); err == nil {
			err = lead.store.Sync()
		}
		if err != nil {
			// The store's append cursor may already be past the batch,
			// which the next batch carries again: roll the store back to
			// the synced index. Should that fail too, the next batch's
			// append is refused and lands back here.
			lead.store.TruncateSuffix(batch[0].Index)
		}
	}

	g.mu.Lock()
	acks, need := 1, g.Quorum() // the leader's own synced copy counts
	if err == nil {
		// Followers never see an entry the leader could still lose: the
		// durable cursor gates FrameFor and appendTo.
		g.durable = last
		for _, f := range g.members {
			if f != lead && !f.dead && g.appendTo(lead, f) {
				acks++
			}
		}
		if acks < need && len(g.cfg.Remotes) > 0 {
			commit, moved := lead.commitIndex, g.notify
			g.mu.Unlock()
			acks += g.awaitRemotes(lead, last, commit, need-acks, moved)
			g.mu.Lock()
		}
	}
	switch {
	case g.closed:
	case lead.dead || g.members[g.leaderID.Load()] != lead || g.term.Load() != term:
		g.failErr = ErrNotLeader
	case err != nil:
		g.failErr = err
	case acks < need:
		// The entries stay in the log and commit with a later batch once
		// a quorum heals; their writers retry, and apply-time fencing plus
		// the ledger keep the retries exactly-once either way.
		g.nNoQuorum += last - first + 1
		g.failErr = ErrNoQuorum
	default:
		if cerr := g.commitLocked(lead, last); cerr != nil {
			g.failErr = cerr
		}
	}
	g.settled = last
	if snap := lead.takeUnsaved(); snap != nil {
		// Release the batch's writers first; only the next batch waits
		// for the save. The batch is committed whether or not the
		// snapshot persists: a failed save leaves the WAL whole for the
		// next snapshot to cover.
		g.broadcastLocked()
		g.mu.Unlock()
		lead.saveSnapshot(snap)
		g.mu.Lock()
	}
	g.committing = false
	g.broadcastLocked()
}

// commitLocked commits leader lead through index last, applies the
// batch, and pushes the new commit index to every in-process follower
// that holds the whole batch before any waiter is released — so a
// promoted follower has already applied every acknowledged write and
// promotion never needs a catch-up round of its own.
func (g *Group) commitLocked(lead *Replica, last uint64) error {
	applied, dups := lead.lastApplied, lead.counters.applyDups
	lead.commitIndex = last
	if err := lead.applyCommitted(); err != nil {
		return err
	}
	g.nBatches++
	g.nCommits += (lead.lastApplied - applied) - (lead.counters.applyDups - dups)
	for _, f := range g.members {
		if f == lead || f.dead || g.nextIndex[f.id] <= last {
			continue
		}
		if lc := minU64(last, f.log.Last()); lc > f.commitIndex {
			f.commitIndex = lc
			if err := f.applyCommitted(); err != nil {
				return err
			}
		}
	}
	return nil
}

// awaitRemotes asks every remote follower to durably hold the log
// through index and waits — with the group lock released, since remotes
// pull log suffixes through FrameFor — until `need` of them ack, the ack
// timeout expires, the group closes, or lead stops leading (checked on
// every broadcast, starting with moved). It returns the number of acks
// received in time.
func (g *Group) awaitRemotes(lead *Replica, index, commit uint64, need int, moved <-chan struct{}) int {
	remotes := g.cfg.Remotes
	done := make(chan RemoteAck, len(remotes))
	for _, p := range remotes {
		p.Replicate(index, commit, done)
	}
	acks := 0
	pending := len(remotes)
	timer := time.NewTimer(g.ackTimeout)
	defer timer.Stop()
	for acks < need && pending > 0 {
		select {
		case a := <-done:
			pending--
			if a.OK && a.Index >= index {
				acks++
				g.nRemoteAcks.Add(1)
			} else {
				g.nRemoteNacks.Add(1)
			}
		case <-timer.C:
			g.nRemoteNacks.Add(uint64(pending))
			pending = 0
		case <-g.closeCh:
			pending = 0
		case <-moved:
			g.mu.Lock()
			if lead.dead || g.members[g.leaderID.Load()] != lead {
				pending = 0
			}
			moved = g.notify
			g.mu.Unlock()
		}
	}
	return acks
}

// drainLocked settles every entry leader old appended before it is
// deposed, running batches itself when no writer is: an in-process
// leader's replica state outlives its delegation server, so writes it
// accepted still commit if a quorum takes them. Batches always settle
// (the remote wait is bounded by the ack timeout), so the drain is
// bounded too.
func (g *Group) drainLocked(old *Replica) {
	for !old.dead && !g.closed && g.settled < old.log.Last() {
		if g.committing {
			g.waitLocked()
		} else {
			g.runBatchLocked()
		}
	}
}

// resetPipelineLocked restarts the commit pipeline on a newly elected
// leader: its log is its own (in-memory) durable image, and entries
// already in it commit with its first batch.
func (g *Group) resetPipelineLocked(lead *Replica) {
	g.durable, g.settled, g.failErr = lead.log.Last(), lead.log.Last(), nil
	for i := range g.nextIndex {
		g.nextIndex[i] = lead.log.Last() + 1
	}
}

// LeaderFrame is one append RPC's worth of leader state for a remote
// follower at a given next-index: the consistency-check point, the
// entry suffix (copied — safe to retain), the snapshot instead when the
// suffix starts inside truncated history, and the commit cursor.
type LeaderFrame struct {
	Term      uint64
	PrevIndex uint64
	PrevTerm  uint64
	Entries   []Entry
	Snap      *Snapshot // non-nil: install this first, then Entries follow it
	Commit    uint64
}

// FrameFor builds the frame a remote follower needs given that its next
// expected index is ni. The suffix stops at the leader's durable index,
// so a follower never holds an entry the leader has not synced. Remote
// transports call this from their own goroutines; it takes the group
// lock.
func (g *Group) FrameFor(ni uint64) LeaderFrame {
	g.mu.Lock()
	defer g.mu.Unlock()
	lead := g.members[g.leaderID.Load()]
	if ni == 0 {
		ni = 1
	}
	fr := LeaderFrame{Term: g.term.Load(), Commit: lead.commitIndex}
	if ni <= lead.log.Base() {
		// The suffix starts inside truncated history: ship the snapshot,
		// then everything after it.
		fr.Snap = lead.snap
		ni = lead.snap.LastIndex + 1
	}
	fr.PrevIndex = ni - 1
	if t, ok := lead.log.TermAt(fr.PrevIndex); ok {
		fr.PrevTerm = t
	}
	// Copy: Log.TruncatePrefix shifts the backing array in place, so an
	// aliased suffix handed to another goroutine would be corrupted by
	// the next snapshot cycle.
	fr.Entries = append([]Entry(nil), g.shippable(lead, ni)...)
	return fr
}

// shippable returns l's entries from index ni through the durable index
// (aliased, not copied).
func (g *Group) shippable(l *Replica, ni uint64) []Entry {
	ents := l.log.From(ni)
	if len(ents) == 0 || ents[len(ents)-1].Index <= g.durable {
		return ents
	}
	if ents[0].Index > g.durable {
		return nil
	}
	return ents[:g.durable-ents[0].Index+1]
}

// appendTo brings follower f up to date with leader l's durable log,
// returning whether f holds every durable leader entry afterwards. It
// runs the raft consistency check (previous index/term) with
// truncate-on-conflict and falls back to snapshot installation when f
// needs truncated history.
func (g *Group) appendTo(l, f *Replica) bool {
	n := g.appendAttempts.Add(1)
	if h := g.cfg.Hooks; h != nil {
		if h.DropAppend(f.id, n) {
			g.nAppendDrops++
			return false
		}
		h.SlowAppend(f.id, n)
	}
	ni := g.nextIndex[f.id]
	if ni == 0 {
		ni = 1
	}
	for {
		if ni <= l.log.Base() {
			// The suffix f needs starts inside the leader's truncated
			// prefix: fast-forward f from the snapshot, then ship the
			// remaining live suffix.
			if err := f.InstallSnap(l.snap); err != nil {
				return false
			}
			ni = l.snap.LastIndex + 1
		}
		prev := ni - 1
		prevTerm, ok := l.log.TermAt(prev)
		if !ok {
			panic("replica: leader lost term for its own log prefix")
		}
		match, hint, err := f.HandleAppend(prev, prevTerm, g.shippable(l, ni), l.commitIndex)
		if err != nil {
			return false
		}
		if match {
			g.nextIndex[f.id] = g.durable + 1
			return true
		}
		ni = hint + 1
	}
}

// KillReplica marks member id dead: appends skip it and it cannot be
// promoted until revived with Restart. Killing the current leader is the
// first half of a failover (its unsettled writes fail with
// ErrNotLeader); Promote is the second.
func (g *Group) KillReplica(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members[id].dead = true
	g.broadcastLocked()
}

// Promote elects a new leader after the current one died: the most
// up-to-date live member by (last log term, last log index) wins, the
// term and epoch advance, and the winner applies any committed backlog
// before serving. It fails with ErrNoQuorum when fewer than a quorum of
// members are alive. Promote is idempotent: re-invoking it after a
// failed attempt (e.g. once a member was revived) retries the election.
func (g *Group) Promote() (*Replica, uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.members[g.leaderID.Load()]
	g.drainLocked(old)
	old.dead = true // the caller observed the leader's death
	g.broadcastLocked()
	var cand *Replica
	alive := 0
	for _, m := range g.members {
		if m.dead {
			continue
		}
		alive++
		if cand == nil || moreUpToDate(m, cand) {
			cand = m
		}
	}
	if cand == nil || alive < g.Quorum() {
		return nil, 0, ErrNoQuorum
	}
	return g.electLocked(cand)
}

// Reelect re-runs a failed election with the deposed leader back on the
// ballot. Promote models the supervisor's view — the leader's server
// died, prefer a live follower — but an in-process member's replica
// state outlives its delegation server (state is lost only through
// Restart's wipe). So when promotion failed for lack of quorum and an
// operator has since revived members, the deposed leader's intact log
// may be the only copy of acknowledged writes; Reelect lets it win and
// revives it in place. The usual rules hold: most up-to-date member by
// (last log term, last log index) wins, term and epoch advance, quorum
// of candidates required.
func (g *Group) Reelect() (*Replica, uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.members[g.leaderID.Load()]
	var cand *Replica
	alive := 0
	for _, m := range g.members {
		if m.dead && m != old {
			continue
		}
		alive++
		if cand == nil || moreUpToDate(m, cand) {
			cand = m
		}
	}
	if cand == nil || alive < g.Quorum() {
		return nil, 0, ErrNoQuorum
	}
	cand.dead = false
	return g.electLocked(cand)
}

// electLocked installs cand as leader of a new term and epoch.
func (g *Group) electLocked(cand *Replica) (*Replica, uint64, error) {
	g.term.Add(1)
	g.leaderID.Store(int32(cand.id))
	// Every acknowledged write was commit-pushed to caught-up followers
	// before the client saw the ack, so the most up-to-date live member
	// has it at or below its commit index; applying the backlog makes
	// the new leader's ledger authoritative for retry dedup.
	if err := cand.applyCommitted(); err != nil {
		return nil, 0, err
	}
	g.resetPipelineLocked(cand)
	g.broadcastLocked()
	ep := g.epoch.Add(1)
	g.nFailovers++
	if tr := g.cfg.Trace; tr != nil {
		tr.Event(obs.KindFailover, -1, g.term.Load())
	}
	return cand, ep, nil
}

// Restart revives dead member id with wiped state (the restarted-process
// model): an empty state machine, log, and ledger. The member catches up
// lazily on the next append — via snapshot-then-suffix when the leader
// has truncated history, via plain log replay otherwise. Restarting the
// member that still holds leadership is an error; promote first.
func (g *Group) Restart(id int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.members[id]
	if !r.dead {
		return fmt.Errorf("replica: member %d is alive", id)
	}
	if int32(id) == g.leaderID.Load() {
		return fmt.Errorf("replica: member %d still holds leadership; promote first", id)
	}
	r.Member = Member{
		sm:            g.cfg.NewMachine(),
		ledger:        make(map[uint64]Applied),
		snapshotEvery: g.cfg.SnapshotEvery,
	}
	r.dead = false
	g.nextIndex[id] = 1
	g.nRestarts++
	return nil
}

// Sync synchronously brings member id up to date from the current
// leader, outside any commit batch — the explicit catch-up used by
// tests and by operators after a Restart. It returns whether the member
// now holds the leader's full durable log. Injected faults (partitions,
// slow links) apply.
func (g *Group) Sync(id int) (bool, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	lead := g.members[g.leaderID.Load()]
	if lead.dead {
		return false, ErrNotLeader
	}
	f := g.members[id]
	if f == lead {
		return true, nil
	}
	if f.dead {
		return false, ErrDead
	}
	return g.appendTo(lead, f), nil
}

// Stats returns a counter snapshot.
func (g *Group) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	lead := g.members[g.leaderID.Load()]
	alive := 0
	var dups, snaps, installs, truncated uint64
	for _, m := range g.members {
		if !m.dead {
			alive++
		}
		dups += m.counters.applyDups
		snaps += m.counters.snapshots
		installs += m.counters.snapshotInstalls
		truncated += m.counters.truncated
	}
	for _, p := range g.cfg.Remotes {
		if p.Healthy() {
			alive++
		}
	}
	return Stats{
		Term:             g.term.Load(),
		Epoch:            g.epoch.Load(),
		LeaderID:         lead.id,
		Replicas:         g.cfg.Replicas + len(g.cfg.Remotes),
		AliveReplicas:    alive,
		CommitIndex:      lead.commitIndex,
		LastApplied:      lead.lastApplied,
		LogBase:          lead.log.Base(),
		LogLast:          lead.log.Last(),
		Proposals:        g.nProposals,
		Commits:          g.nCommits,
		Batches:          g.nBatches,
		LedgerHits:       g.nLedgerHits,
		ApplyDups:        dups,
		NoQuorum:         g.nNoQuorum,
		AppendAttempts:   g.appendAttempts.Load(),
		AppendDrops:      g.nAppendDrops,
		Snapshots:        snaps,
		SnapshotInstalls: installs,
		EntriesTruncated: truncated,
		Failovers:        g.nFailovers,
		Restarts:         g.nRestarts,
		RemoteAcks:       g.nRemoteAcks.Load(),
		RemoteNacks:      g.nRemoteNacks.Load(),
	}
}

// moreUpToDate is raft's log-recency order: higher last term wins, then
// higher last index.
func moreUpToDate(a, b *Replica) bool {
	at, _ := a.log.TermAt(a.log.Last())
	bt, _ := b.log.TermAt(b.log.Last())
	if at != bt {
		return at > bt
	}
	return a.log.Last() > b.log.Last()
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
