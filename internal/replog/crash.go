package replog

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
)

// CrashPoint arms deterministic self-SIGKILL points inside the storage
// layer, so the process-kill chaos harness can land a `kill -9`
// *exactly* mid-WAL-write, mid-snapshot-install or mid-group-commit
// instead of hoping a timer does. The kill is a real SIGKILL delivered to the whole
// process: no deferred cleanup runs, exactly like the failure being
// modeled.
//
// Records, snapshots and syncs are counted per process lifetime, so a
// restarted process re-arms from zero only if its environment says to.
type CrashPoint struct {
	// AtRecord, when nonzero, kills the process while appending the
	// AtRecord'th record (1-based) of this process's lifetime: the first
	// TornBytes bytes of the record are written and flushed first, so the
	// on-disk tail is genuinely torn.
	AtRecord  uint64
	TornBytes int
	// AtSnapshot, when nonzero, kills the process while persisting the
	// AtSnapshot'th snapshot (1-based): the temp file is fully written
	// but never renamed into place, the half-installed state recovery
	// must ignore.
	AtSnapshot uint64
	// AtBatch, when nonzero, kills the process right after the
	// AtBatch'th Store.Sync (1-based) returns. A pinned leader's
	// committer syncs exactly once per group commit, before it ships
	// the batch to any follower, so on a leader this lands after batch
	// AtBatch is durable in its own WAL and before a single quorum ack
	// for it can arrive. (A follower syncs once per append frame.)
	AtBatch uint64

	records   atomic.Uint64
	snapshots atomic.Uint64
	batches   atomic.Uint64
}

// CrashEnv is the environment variable the chaos harness sets to arm
// crash points in a spawned member process. Format:
//
//	wal-record:<n>[:<tornBytes>]  — torn write of record n, then SIGKILL
//	snap-temp:<n>                 — snapshot n left as temp, then SIGKILL
//	commit-batch:<n>              — SIGKILL after the n'th WAL sync
const CrashEnv = "FFWD_CRASH_POINT"

// CrashFromEnv parses CrashEnv; nil means no crash point armed. A
// malformed value is an error so a harness typo fails loudly.
func CrashFromEnv() (*CrashPoint, error) {
	v := os.Getenv(CrashEnv)
	if v == "" {
		return nil, nil
	}
	parts := strings.Split(v, ":")
	bad := func() (*CrashPoint, error) {
		return nil, fmt.Errorf("replog: bad %s %q (want wal-record:<n>[:<bytes>], snap-temp:<n> or commit-batch:<n>)", CrashEnv, v)
	}
	if len(parts) < 2 {
		return bad()
	}
	n, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil || n == 0 {
		return bad()
	}
	switch parts[0] {
	case "wal-record":
		cp := &CrashPoint{AtRecord: n, TornBytes: 7}
		if len(parts) == 3 {
			tb, err := strconv.Atoi(parts[2])
			if err != nil || tb < 0 {
				return bad()
			}
			cp.TornBytes = tb
		} else if len(parts) > 3 {
			return bad()
		}
		return cp, nil
	case "snap-temp":
		if len(parts) != 2 {
			return bad()
		}
		return &CrashPoint{AtSnapshot: n}, nil
	case "commit-batch":
		if len(parts) != 2 {
			return bad()
		}
		return &CrashPoint{AtBatch: n}, nil
	}
	return bad()
}

// kill delivers SIGKILL to the current process and never returns.
func (c *CrashPoint) kill() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable: SIGKILL cannot be caught
}

// onRecord is the WAL's append fault point: it returns the number of
// record bytes to write before dying, or -1 to proceed normally.
func (c *CrashPoint) onRecord() int {
	if c == nil || c.AtRecord == 0 {
		return -1
	}
	if c.records.Add(1) != c.AtRecord {
		return -1
	}
	return c.TornBytes
}

// onSnapshot is the snapshot-save fault point: true means die after the
// temp file is written, before the rename.
func (c *CrashPoint) onSnapshot() bool {
	if c == nil || c.AtSnapshot == 0 {
		return false
	}
	return c.snapshots.Add(1) == c.AtSnapshot
}

// onSync is the group-commit fault point, consulted after each
// Store.Sync: true means die now, with the batch synced but not yet
// replicated.
func (c *CrashPoint) onSync() bool {
	if c == nil || c.AtBatch == 0 {
		return false
	}
	return c.batches.Add(1) == c.AtBatch
}
