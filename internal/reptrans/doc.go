// Package reptrans is the cross-process replication transport: a
// length-prefixed binary TCP protocol carrying the leader→follower
// append stream of a pinned-leader replica group.
//
// The leader side (Peer) implements replica.Remote: the goroutine
// running a group commit asks it, once per batch, to make the log
// durable on its follower through the batch's last index, and the peer owns
// everything else — connection lifecycle, capped jittered reconnect
// backoff, heartbeats (empty append frames), consistency probing,
// snapshot catch-up, and pipelined ack matching. There is no separate
// commit message: a follower learns the commit index from the next
// batch's append frame or from a heartbeat, and no frame carries an
// entry past the leader's synced index (replica.Group.FrameFor caps
// the suffix there). The follower
// side (Server) feeds admitted frames to a replica.Member backed by a
// replog.Store, fsyncing before every ack so an ack always means "this
// suffix survives kill -9".
//
// Sessions are fenced by (term, epoch): the leader bumps its epoch on
// every dial, the follower admits only strictly newer sessions and
// closes the session it supersedes, and the leader tags acks with the
// epoch of the connection that read them — so a stale, half-dead
// connection from before a reconnect can neither ack into the new
// session on the follower nor resolve the new session's frames on the
// leader.
//
// There are no vote frames: leadership is pinned to the leader process
// (see DESIGN.md), so the protocol needs exactly the append half of
// raft, with terms persisting across leader restarts via the boot
// counter.
package reptrans
