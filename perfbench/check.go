package main

import "sync/atomic"

// Every value the generator writes names the write that produced it:
// value = conn<<connShift | seq, where conn is the writing connection
// (0 is the preload) and seq counts that connection's writes from 1.
// Since conn is at most 2, no value can be the reserved 2^64-1. The write
// log maps (conn, seq) back to the key that write targeted, so a GET
// reply is checked exactly, not by a hash.
const connShift = 48

func encodeValue(conn, seq uint64) uint64 { return conn<<connShift | seq }

func decodeValue(v uint64) (conn, seq uint64) { return v >> connShift, v & (1<<connShift - 1) }

const (
	chunkBits = 16
	chunkLen  = 1 << chunkBits
	logChunks = 1 << 12 // 2^28 writes per connection, far beyond a run
)

// writeLog records one connection's writes in submission order: entry
// seq-1 is the key of write seq. Only the connection's sender appends;
// any goroutine may look up a seq it has seen published through n.
type writeLog struct {
	n      atomic.Uint64
	chunks [logChunks]atomic.Pointer[[chunkLen]uint64]
}

// append logs a write of key and returns its seq (0 when the log is
// full, which a run cannot reach at the rates this benchmark drives).
func (l *writeLog) append(key uint64) uint64 {
	n := l.n.Load()
	ci := n >> chunkBits
	if ci >= logChunks {
		return 0
	}
	c := l.chunks[ci].Load()
	if c == nil {
		c = new([chunkLen]uint64)
		l.chunks[ci].Store(c)
	}
	c[n&(chunkLen-1)] = key
	l.n.Store(n + 1)
	return n + 1
}

// key returns the key written by write seq, if that write was logged.
func (l *writeLog) key(seq uint64) (uint64, bool) {
	if seq == 0 || seq > l.n.Load() {
		return 0, false
	}
	i := seq - 1
	return l.chunks[i>>chunkBits].Load()[i&(chunkLen-1)], true
}

// verdict classifies one GET reply.
type verdict int

const (
	readOK verdict = iota
	// readForeign: the value was never written to the key read — a
	// value of another key, an unknown writer, or a fabricated word.
	readForeign
	// readStale: this connection's own value, older than its latest
	// SET to the key submitted before the GET (or absent after such a
	// SET on a workload that never evicts or expires).
	readStale
	// readFuture: this connection's own value from a SET submitted
	// after the GET.
	readFuture
)

// checker holds every connection's write log; index 0 is the preload.
type checker struct {
	logs []*writeLog
	// lossless marks workloads that neither evict nor expire, where an
	// absent key after this connection's own SET is a stale read.
	lossless bool
}

func newChecker(conns int, lossless bool) *checker {
	c := &checker{logs: make([]*writeLog, conns+1), lossless: lossless}
	for i := range c.logs {
		c.logs[i] = new(writeLog)
	}
	return c
}

// checkGet judges a GET of key issued by connection conn. minSeq is the
// seq of conn's latest SET to key submitted before the GET (0 if none);
// maxSeq is conn's write count when the GET was submitted. Values that
// other connections wrote are checked for integrity only.
func (c *checker) checkGet(conn, key uint64, found bool, val, minSeq, maxSeq uint64) verdict {
	if !found {
		if c.lossless && minSeq > 0 {
			return readStale
		}
		return readOK
	}
	owner, seq := decodeValue(val)
	if owner >= uint64(len(c.logs)) {
		return readForeign
	}
	if k, ok := c.logs[owner].key(seq); !ok || k != key {
		return readForeign
	}
	if owner != conn {
		return readOK
	}
	switch {
	case seq < minSeq:
		return readStale
	case seq > maxSeq:
		return readFuture
	}
	return readOK
}
