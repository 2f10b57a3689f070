package main

import (
	"fmt"
	"net"
	"path/filepath"
	"time"

	"ffwd/internal/apps"
	"ffwd/internal/replica"
	"ffwd/internal/replog"
	"ffwd/internal/reptrans"
	"ffwd/internal/stats"
)

// The in-process probes time calls into single modules' public
// functions on the workload's seeded op stream, one span per timed
// call. They run after the traced load phase, never during it.

// timer stamps spans on the traced phase's clock.
type timer struct {
	base  time.Time
	spans *spanBuf
}

func (t timer) now() int64 { return int64(time.Since(t.base)) }

// appsReplay replays the first ops requests of the workload's seeded
// streams (connections interleaved round robin, as the server sees them
// in aggregate) into an apps.KVStore of the server's capacity. On an
// open loop the store clock follows the request schedule, so TTLs
// expire as they would at the offered rate. It returns the final store.
func appsReplay(w *spec, seed int64, ops int, t timer, out map[string]float64) *apps.KVStore {
	s := apps.NewKVStore(w.Capacity)
	for k := uint64(1); k <= w.PreloadKeys; k++ {
		s.Set(k, encodeValue(0, k))
	}
	gens := make([]*opGen, w.Conns)
	seqs := make([]uint64, w.Conns)
	for i := range gens {
		gens[i] = newOpGen(w, seed, i+1)
	}
	var getH, setH stats.Histogram
	var clock uint64
	for i := 0; i < ops; i++ {
		c := i % w.Conns
		kind, key := gens[c].next()
		if tick := uint64(float64(i) * 1000 / max(w.RateOps, 1)); w.RateOps > 0 && tick > clock {
			clock = tick
			s.AdvanceClock(clock)
			s.Maintain(0)
		}
		var val uint64
		if kind == opSet || kind == opSetTTL {
			seqs[c]++
			val = encodeValue(uint64(c+1), seqs[c])
		}
		t0 := t.now()
		switch kind {
		case opGet:
			s.Get(key)
		case opSet:
			s.Set(key, val)
		case opSetTTL:
			s.SetTTL(key, val, clock, w.TTLms)
		case opTouch:
			s.Touch(key, clock, w.TTLms)
		}
		t1 := t.now()
		switch kind {
		case opGet:
			getH.Record(uint64(t1 - t0))
			t.spans.add(spanAppsGet, 0, uint64(i), t0, t1)
		case opSet, opSetTTL:
			setH.Record(uint64(t1 - t0))
			t.spans.add(spanAppsSet, 0, uint64(i), t0, t1)
		}
	}
	hits, misses, evictions := s.Stats()
	out["apps.get_ns_p50"] = getH.Quantile(0.5)
	out["apps.set_ns_p50"] = setH.Quantile(0.5)
	out["apps.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	out["apps.evictions"] = float64(evictions)
	out["apps.snapshot_encode_ms"] = medianOf(3, func(i int) float64 {
		t0 := t.now()
		s.EncodeState()
		t1 := t.now()
		t.spans.add(spanEncodeState, 0, uint64(i), t0, t1)
		return float64(t1-t0) / 1e6
	})
	return s
}

// medianOf runs f n times and returns the median result.
func medianOf(n int, f func(i int) float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f(i)
	}
	return median(xs)
}

// replogProbeWrites is how many single-entry appends the WAL probe times.
const replogProbeWrites = 400

// replogProbe times the durable log on a fresh directory of the run's
// filesystem. A write under -fsync always is one record write plus one
// fsync; the probe opens the store with the batch policy so the two
// show separately: AppendEntries is the record write, Sync the fsync.
// The snapshot saved is the replayed store's image.
func replogProbe(dir string, state []byte, t timer, out map[string]float64) error {
	st, _, err := replog.Open(dir, replog.Options{Sync: replog.SyncBatch})
	if err != nil {
		return fmt.Errorf("replog probe: %w", err)
	}
	defer st.Close()
	var appendH, syncH stats.Histogram
	for i := uint64(1); i <= replogProbeWrites; i++ {
		e := replica.Entry{Index: i, Term: 1, ClientID: 1, Seq: i, Kind: replica.OpSet, Key: i, Val: i}
		t0 := t.now()
		if err := st.AppendEntries([]replica.Entry{e}); err != nil {
			return fmt.Errorf("replog probe append: %w", err)
		}
		t1 := t.now()
		if err := st.Sync(); err != nil {
			return fmt.Errorf("replog probe sync: %w", err)
		}
		t2 := t.now()
		appendH.Record(uint64(t1 - t0))
		syncH.Record(uint64(t2 - t1))
		t.spans.add(spanReplogAppend, 0, i, t0, t1)
		t.spans.add(spanReplogSync, 0, i, t1, t2)
	}
	out["replog.append_us_p50"] = appendH.Quantile(0.5) / 1e3
	out["replog.sync_us_p50"] = syncH.Quantile(0.5) / 1e3
	out["replog.sync_us_p99"] = syncH.Quantile(0.99) / 1e3
	var saveErr error
	out["replog.snapshot_save_ms"] = medianOf(3, func(i int) float64 {
		snap := &replica.Snapshot{LastIndex: replogProbeWrites, LastTerm: 1, State: state,
			Ledger: map[uint64]replica.Applied{1: {Seq: replogProbeWrites}}}
		t0 := t.now()
		if err := st.SaveSnapshot(snap); err != nil && saveErr == nil {
			saveErr = err
		}
		t1 := t.now()
		t.spans.add(spanReplogSnapshot, 0, uint64(i), t0, t1)
		return float64(t1-t0) / 1e6
	})
	return saveErr
}

// reptransProbeWrites is how many replicate round trips the probe times.
const reptransProbeWrites = 300

// reptransProbe times Peer.Replicate → ack against an in-process
// follower: a reptrans.Server over a replica.Member on a durable
// replog.Store with the workload's fsync policy, wired like a follower
// process. The leader is a pinned replica.Group whose own log skips
// fsync, so only the follower's durable append is inside the interval.
func reptransProbe(dir string, w *spec, t timer, out map[string]float64) error {
	pol, err := replog.ParseSyncPolicy(w.Durable.Fsync)
	if err != nil {
		return err
	}
	fst, frec, err := replog.Open(filepath.Join(dir, "follower"), replog.Options{Sync: pol})
	if err != nil {
		return err
	}
	defer fst.Close()
	m := replica.NewMember(apps.NewKVMachine(w.Capacity), 0, fst)
	if err := m.Recover(frec.Snap, frec.Entries); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := reptrans.NewServer(ln, reptrans.ServerConfig{Member: m, Store: fst})
	defer srv.Close()

	lst, lrec, err := replog.Open(filepath.Join(dir, "leader"), replog.Options{Sync: replog.SyncNone})
	if err != nil {
		return err
	}
	defer lst.Close()
	ref := &reptrans.LeaderRef{InitialTerm: lrec.Meta.Boots}
	peer := reptrans.NewPeer(reptrans.PeerConfig{
		ID: 1, Addr: srv.Addr().String(), Leader: ref,
		// Heartbeats also push frames; keep them out of the timed window.
		HeartbeatEvery: 10 * time.Second, HeartbeatTimeout: 60 * time.Second,
	})
	defer peer.Close()
	g, err := replica.NewGroup(replica.GroupConfig{
		Replicas:      1,
		SnapshotEvery: 1 << 30,
		NewMachine:    func() replica.StateMachine { return apps.NewKVMachine(w.Capacity) },
		Storage:       lst,
		Recovered:     &replica.RecoveredLeader{Snap: lrec.Snap, Entries: lrec.Entries},
		Term:          lrec.Meta.Boots,
	})
	if err != nil {
		return err
	}
	ref.Set(g)
	deadline := time.Now().Add(10 * time.Second)
	for !peer.Healthy() {
		if time.Now().After(deadline) {
			return fmt.Errorf("reptrans probe: follower link never came up")
		}
		time.Sleep(time.Millisecond)
	}
	lead, _ := g.Leader()
	var rtt stats.Histogram
	done := make(chan replica.RemoteAck, 1)
	for i := uint64(1); i <= reptransProbeWrites; i++ {
		if _, err := g.Propose(lead, 1, i, replica.OpSet, i%w.Keys+1, i); err != nil {
			return fmt.Errorf("reptrans probe propose: %w", err)
		}
		idx := g.Stats().CommitIndex
		t0 := t.now()
		peer.Replicate(idx, idx, done)
		var ack replica.RemoteAck
		select {
		case ack = <-done:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("reptrans probe: no ack for index %d", idx)
		}
		t1 := t.now()
		if !ack.OK {
			return fmt.Errorf("reptrans probe: follower refused index %d", idx)
		}
		rtt.Record(uint64(t1 - t0))
		t.spans.add(spanReptransRTT, 0, idx, t0, t1)
	}
	out["reptrans.rtt_us_p50"] = rtt.Quantile(0.5) / 1e3
	out["reptrans.rtt_us_p99"] = rtt.Quantile(0.99) / 1e3
	return nil
}
