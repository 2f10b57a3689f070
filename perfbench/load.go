package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ffwd/internal/stats"
	"ffwd/internal/wireproto"
	"ffwd/internal/workload"
)

// This file is the load generator: one sender and one reader goroutine
// per connection. A closed loop keeps InFlight requests outstanding per
// connection; an open loop sends on a fixed schedule and times every
// request from its scheduled instant, so a stall shows up in latency
// instead of thinning the load. Every reply is checked (check.go).

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opSetTTL
	opTouch
)

// opGen is one connection's seeded op stream.
type opGen struct {
	keys workload.KeyGen
	x    uint64 // xorshift state of the op-kind draw
	m    mix
}

func newOpGen(w *spec, seed int64, conn int) *opGen {
	s := seed*1_000_003 + int64(conn)*7_919 + 1
	var kg workload.KeyGen = workload.NewUniform(s, w.Keys)
	if w.KeyDist == "zipf" {
		kg = workload.NewZipf(s, w.ZipfS, w.Keys)
	}
	return &opGen{keys: kg, x: uint64(s)*0x9E3779B97F4A7C15 | 1, m: w.Mix}
}

func (g *opGen) next() (opKind, uint64) {
	g.x ^= g.x << 13
	g.x ^= g.x >> 7
	g.x ^= g.x << 17
	c := int(g.x % 100)
	k := g.keys.Next()
	switch {
	case c < g.m.Get:
		return opGet, k
	case c < g.m.Get+g.m.SetTTL:
		return opSetTTL, k
	case c < g.m.Get+g.m.SetTTL+g.m.Touch:
		return opTouch, k
	}
	return opSet, k
}

// phase is one measured load phase against one server address. Times
// are nanoseconds since base; requests scheduled (open loop) or sent
// (closed loop) in [start, end) are the measured window.
type phase struct {
	w          *spec
	addr       string
	seed       int64
	base       time.Time
	start, end int64
	drain      time.Duration
	chk        *checker
	trace      bool
}

func (p *phase) now() int64 { return int64(time.Since(p.base)) }

// connResult is one connection's tally. Window counts cover requests in
// the measured window; integrity counts cover the whole phase.
type connResult struct {
	lat, late  samples         // ns: reply latency, send lateness
	enc, dec   stats.Histogram // ns per encode / decode call (traced)
	attempted  uint64
	completed  uint64
	inWindow   uint64 // correct replies received inside the window
	busy       uint64
	errors     uint64
	unanswered uint64
	gets       uint64
	stale      uint64
	future     uint64
	integrity  uint64
	spans      spanBuf
	firstFault string
}

func (r *connResult) merge(o *connResult) {
	r.lat = append(r.lat, o.lat...)
	r.late = append(r.late, o.late...)
	r.enc.Merge(&o.enc)
	r.dec.Merge(&o.dec)
	r.attempted += o.attempted
	r.completed += o.completed
	r.inWindow += o.inWindow
	r.busy += o.busy
	r.errors += o.errors
	r.unanswered += o.unanswered
	r.gets += o.gets
	r.stale += o.stale
	r.future += o.future
	r.integrity += o.integrity
	r.spans.merge(&o.spans)
	if r.firstFault == "" {
		r.firstFault = o.firstFault
	}
}

func (r *connResult) failed() uint64 { return r.busy + r.errors + r.unanswered }

// samples holds every latency of a phase, so quantiles are exact
// rather than bucket midpoints.
type samples []uint32

// add records d nanoseconds, clamped to [0, 2^32) (about 4.3 s).
func (s *samples) add(d int64) { *s = append(*s, uint32(min(max(d, 0), math.MaxUint32))) }

// quantile returns the q-quantile in nanoseconds, interpolating between
// the two nearest ranks. It sorts s in place.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	x := q * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	return float64(s[i]) + (x-float64(i))*(float64(s[i+1])-float64(s[i]))
}

// pend is what the reader needs to settle one request.
type pend struct {
	kind    opKind
	key     uint64
	minSeq  uint64 // latest own write to key before a GET (0 = none)
	maxSeq  uint64 // own write count when a GET was sent
	sched   int64  // scheduled (open) or send (closed) time
	sent    int64
	counted bool
	id      uint64
}

type replyKind uint8

const (
	rValue replyKind = iota
	rNotFound
	rStored
	rTouched
	rBusy
	rError
	rOther
)

// reader is the reply-side state of one connection.
type reader struct {
	p      *phase
	conn   uint64
	res    connResult
	unsure map[uint64]bool // keys with a failed own write: order unknown
}

func (rd *reader) fault(format string, args ...any) {
	rd.res.integrity++
	if rd.res.firstFault == "" {
		rd.res.firstFault = fmt.Sprintf("conn %d: ", rd.conn) + fmt.Sprintf(format, args...)
	}
}

// settle checks one reply against its request and tallies it.
func (rd *reader) settle(q *pend, kind replyKind, val uint64, now int64) {
	r := &rd.res
	switch kind {
	case rBusy, rError:
		if q.kind != opGet && q.kind != opTouch {
			if rd.unsure == nil {
				rd.unsure = make(map[uint64]bool)
			}
			rd.unsure[q.key] = true
		}
		if q.counted {
			if kind == rBusy {
				r.busy++
			} else {
				r.errors++
			}
		}
		return
	}
	var ok bool
	switch q.kind {
	case opGet:
		ok = kind == rValue || kind == rNotFound
	case opSet, opSetTTL:
		ok = kind == rStored
	case opTouch:
		ok = kind == rTouched || kind == rNotFound
	}
	if !ok {
		rd.fault("request %d (op %d key %d) answered with reply kind %d", q.id, q.kind, q.key, kind)
		return
	}
	if q.kind == opGet {
		switch rd.p.chk.checkGet(rd.conn, q.key, kind == rValue, val, q.minSeq, q.maxSeq) {
		case readForeign:
			rd.fault("GET key %d returned %#x, a value never written to that key", q.key, val)
			return
		case readStale:
			if q.counted && !rd.unsure[q.key] {
				r.stale++
			}
		case readFuture:
			if q.counted {
				r.future++
			}
		}
		if q.counted {
			r.gets++
		}
	}
	if now >= rd.p.start && now < rd.p.end {
		r.inWindow++
	}
	if q.counted {
		r.completed++
		r.lat.add(now - q.sched)
	}
}

// sender is the request-side state of one connection.
type sender struct {
	p         *phase
	conn      uint64
	gen       *opGen
	log       *writeLog
	lastWrite []uint64      // per key: seq of the latest own write
	interval  int64         // open-loop gap between this connection's sends
	next      int64         // next scheduled send (open loop)
	over      chan struct{} // closed at the window's end
	res       connResult
}

func newSender(p *phase, conn int) *sender {
	s := &sender{
		p:         p,
		conn:      uint64(conn),
		gen:       newOpGen(p.w, p.seed, conn),
		log:       p.chk.logs[conn],
		lastWrite: make([]uint64, p.w.Keys+1),
		over:      make(chan struct{}),
	}
	// A sender blocked on a server that stopped answering gives up when
	// the window ends; the drain then counts what is unanswered.
	time.AfterFunc(time.Until(p.base.Add(time.Duration(p.end))), func() { close(s.over) })
	if p.w.RateOps > 0 {
		s.interval = int64(float64(time.Second) * float64(p.w.Conns) / p.w.RateOps)
		// Interleave the connections' schedules instead of sending in pairs.
		s.next = s.interval * int64(conn-1) / int64(p.w.Conns)
	}
	return s
}

// due waits for the next send slot. It returns the request's scheduled
// time, or false once the window is over.
func (s *sender) due() (int64, bool) {
	now := s.p.now()
	if s.interval == 0 {
		return now, now < s.p.end
	}
	if s.next >= s.p.end {
		return 0, false
	}
	if d := s.next - now; d > 0 {
		sleepPrecise(time.Duration(d))
	}
	t := s.next
	s.next += s.interval
	return t, true
}

// pinPacer prepares the calling goroutine to pace an open loop: it
// locks it to its OS thread and sets that thread's timer slack to 1ns,
// so sleepPrecise wakes within microseconds of its deadline. Go's
// time.Sleep rounds short sleeps up to about a millisecond on Linux,
// which would send the open loop in millisecond bursts. The returned
// func undoes the lock.
func pinPacer() func() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return runtime.UnlockOSThread
}

// sleepPrecise sleeps d with nanosleep on the calling thread.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// nextOp draws the next op and fills q; for writes it returns the value.
func (s *sender) nextOp(q *pend, sched int64) uint64 {
	kind, key := s.gen.next()
	*q = pend{kind: kind, key: key, sched: sched, counted: sched >= s.p.start && sched < s.p.end}
	var val uint64
	switch kind {
	case opGet:
		q.minSeq, q.maxSeq = s.lastWrite[key], s.log.n.Load()
	case opSet, opSetTTL:
		seq := s.log.append(key)
		s.lastWrite[key] = seq
		val = encodeValue(s.conn, seq)
	}
	if q.counted {
		s.res.attempted++
	}
	return val
}

// acquire takes an in-flight slot, flushing buffered requests before it
// blocks. A closed loop's request is timed from when it gets its slot.
// It reports false once the reader has exited or the window is over.
func (s *sender) acquire(sem chan struct{}, readerDone <-chan struct{}, flush func(), sched *int64) bool {
	select {
	case sem <- struct{}{}:
		return true
	default:
	}
	flush()
	select {
	case sem <- struct{}{}:
	case <-readerDone:
		return false
	case <-s.over:
		return false
	}
	if s.interval == 0 {
		*sched = s.p.now()
	}
	return true
}

// abandon accounts for an open loop that stops early because its
// in-flight slots never freed: every request still scheduled inside the
// window, from sched on, was due and is counted attempted and missing.
func (s *sender) abandon(sched int64) {
	if s.interval == 0 {
		return
	}
	for t := sched; t < s.p.end; t += s.interval {
		if t >= s.p.start {
			s.res.attempted++
			s.res.unanswered++
		}
	}
}

// markSent stamps the send time and records lateness for a counted
// open-loop request.
func (s *sender) markSent(q *pend) {
	q.sent = s.p.now()
	if q.counted && s.interval > 0 {
		s.res.late.add(q.sent - q.sched)
	}
}

// runLoad drives all connections of one phase and merges their results.
func runLoad(p *phase) (*connResult, error) {
	results := make([]*connResult, p.w.Conns)
	errs := make([]error, p.w.Conns)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if p.w.Proto == "binary" {
				results[i], errs[i] = runBinaryConn(p, i+1)
			} else {
				results[i], errs[i] = runTextConn(p, i+1)
			}
		}(i)
	}
	wg.Wait()
	total := &connResult{}
	for i, r := range results {
		if errs[i] != nil {
			return nil, fmt.Errorf("conn %d: %w", i+1, errs[i])
		}
		total.merge(r)
	}
	return total, nil
}

// ringSize bounds the binary connection's in-flight table; request IDs
// index it modulo its size, so it must exceed the in-flight cap.
const ringSize = 1 << 12

type ringSlot struct {
	id atomic.Uint64 // published after q is written; 0 = free
	q  pend
}

// drainWait waits until inflight reaches zero or the drain period ends.
func drainWait(inflight func() int64, d time.Duration) {
	until := time.Now().Add(d)
	for inflight() > 0 && time.Now().Before(until) {
		time.Sleep(200 * time.Microsecond)
	}
}

func runBinaryConn(p *phase, conn int) (*connResult, error) {
	nc, err := net.Dial("tcp", p.addr)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	ring := new([ringSize]ringSlot)
	sem := make(chan struct{}, p.w.InFlight)
	var inflight atomic.Int64
	rd := &reader{p: p, conn: uint64(conn)}
	s := newSender(p, conn)
	if s.interval > 0 {
		defer pinPacer()()
	}

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		buf := make([]byte, 64<<10)
		n := 0
		var resp wireproto.Response
		for {
			for {
				t0 := p.now()
				body, used, err := wireproto.Split(buf[:n])
				if errors.Is(err, wireproto.ErrShort) {
					break
				}
				if err == nil {
					err = wireproto.DecodeResponse(body, &resp)
				}
				now := p.now()
				if err != nil {
					rd.fault("undecodable response frame: %v", err)
					return
				}
				if p.trace {
					rd.res.dec.Record(uint64(now - t0))
					rd.res.spans.add(spanDecode, uint64(conn), resp.ID, t0, now)
				}
				n = copy(buf, buf[used:n])
				slot := &ring[resp.ID&(ringSize-1)]
				if resp.ID == 0 || slot.id.Load() != resp.ID {
					rd.fault("response for unknown request id %d", resp.ID)
					continue
				}
				kind := rOther
				switch resp.Type {
				case wireproto.RespValue:
					kind = rValue
				case wireproto.RespNotFound:
					kind = rNotFound
				case wireproto.RespStored:
					kind = rStored
				case wireproto.RespTouched:
					kind = rTouched
				case wireproto.RespBusy:
					kind = rBusy
				case wireproto.RespError:
					kind = rError
				}
				rd.settle(&slot.q, kind, resp.Val, now)
				if p.trace {
					rd.res.spans.add(spanRequest, uint64(conn), resp.ID, slot.q.sent, now)
				}
				slot.id.Store(0)
				inflight.Add(-1)
				<-sem
			}
			if n == len(buf) {
				rd.fault("response frame larger than %d bytes", len(buf))
				return
			}
			m, err := nc.Read(buf[n:])
			if err != nil {
				return
			}
			n += m
		}
	}()

	w := bufio.NewWriterSize(nc, 32<<10)
	flush := func() { w.Flush() }
	var req wireproto.Request
	var frame []byte
	var id uint64
	for {
		sched, ok := s.due()
		if !ok {
			break
		}
		if !s.acquire(sem, readerDone, flush, &sched) {
			s.abandon(sched)
			break
		}
		// Skip slots still held by requests that were never answered;
		// the in-flight cap leaves at least half the ring free.
		id++
		for ring[id&(ringSize-1)].id.Load() != 0 {
			id++
		}
		slot := &ring[id&(ringSize-1)]
		q := &slot.q
		val := s.nextOp(q, sched)
		q.id = id
		req = wireproto.Request{ID: id, Key: q.key}
		switch q.kind {
		case opGet:
			req.Op = wireproto.OpGet
		case opSet:
			req.Op, req.Val = wireproto.OpSet, val
		case opSetTTL:
			req.Op, req.Val, req.TTL = wireproto.OpSetTTL, val, p.w.TTLms
		case opTouch:
			req.Op, req.TTL = wireproto.OpTouch, p.w.TTLms
		}
		s.markSent(q)
		frame = wireproto.AppendRequest(frame[:0], &req)
		if p.trace {
			t1 := p.now()
			s.res.enc.Record(uint64(t1 - q.sent))
			s.res.spans.add(spanEncode, uint64(conn), id, q.sent, t1)
		}
		inflight.Add(1)
		slot.id.Store(id)
		if _, err := w.Write(frame); err != nil {
			break
		}
		// An open loop sends each request when it is due; a closed loop
		// lets requests queue until its in-flight slots run out.
		if s.interval > 0 || w.Buffered() >= 16<<10 {
			flush()
		}
	}
	flush()
	drainWait(inflight.Load, p.drain)
	nc.Close()
	<-readerDone
	for i := range ring {
		if ring[i].id.Load() != 0 && ring[i].q.counted {
			rd.res.unanswered++
		}
	}
	rd.res.merge(&s.res)
	return &rd.res, nil
}

func runTextConn(p *phase, conn int) (*connResult, error) {
	nc, err := net.Dial("tcp", p.addr)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	// Text replies come back in submission order, so the in-flight set
	// is a FIFO; sem bounds it to the in-flight cap, so sends to it
	// never block.
	pending := make(chan pend, p.w.InFlight)
	sem := make(chan struct{}, p.w.InFlight)
	rd := &reader{p: p, conn: uint64(conn)}
	s := newSender(p, conn)
	if s.interval > 0 {
		defer pinPacer()()
	}

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		br := bufio.NewReaderSize(nc, 64<<10)
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			t0 := p.now()
			kind, val := parseTextReply(line)
			now := p.now()
			var q pend
			select {
			case q = <-pending:
			default:
				rd.fault("unsolicited reply %q", bytes.TrimSpace(line))
				continue
			}
			if p.trace {
				rd.res.dec.Record(uint64(now - t0))
				rd.res.spans.add(spanDecode, uint64(conn), q.id, t0, now)
			}
			rd.settle(&q, kind, val, now)
			if p.trace {
				rd.res.spans.add(spanRequest, uint64(conn), q.id, q.sent, now)
			}
			<-sem
		}
	}()

	w := bufio.NewWriterSize(nc, 32<<10)
	flush := func() { w.Flush() }
	var line []byte
	var id uint64
	for {
		sched, ok := s.due()
		if !ok {
			break
		}
		if !s.acquire(sem, readerDone, flush, &sched) {
			s.abandon(sched)
			break
		}
		id++
		var q pend
		val := s.nextOp(&q, sched)
		q.id = id
		s.markSent(&q)
		line = appendTextRequest(line[:0], &q, val, p.w.TTLms)
		if p.trace {
			t1 := p.now()
			s.res.enc.Record(uint64(t1 - q.sent))
			s.res.spans.add(spanEncode, uint64(conn), id, q.sent, t1)
		}
		pending <- q
		if _, err := w.Write(line); err != nil {
			break
		}
		// An open loop sends each request when it is due; a closed loop
		// lets requests queue until its in-flight slots run out.
		if s.interval > 0 || w.Buffered() >= 16<<10 {
			flush()
		}
	}
	flush()
	drainWait(func() int64 { return int64(len(pending)) }, p.drain)
	nc.Close()
	<-readerDone
	for len(pending) > 0 {
		if q := <-pending; q.counted {
			rd.res.unanswered++
		}
	}
	rd.res.merge(&s.res)
	return &rd.res, nil
}

func appendTextRequest(b []byte, q *pend, val, ttl uint64) []byte {
	switch q.kind {
	case opGet:
		b = append(b, "get "...)
		b = strconv.AppendUint(b, q.key, 10)
	case opSet:
		b = append(b, "set "...)
		b = strconv.AppendUint(b, q.key, 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, val, 10)
	case opSetTTL:
		b = append(b, "setx "...)
		b = strconv.AppendUint(b, q.key, 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, val, 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, ttl, 10)
	case opTouch:
		b = append(b, "touch "...)
		b = strconv.AppendUint(b, q.key, 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, ttl, 10)
	}
	return append(b, '\n')
}

func parseTextReply(line []byte) (replyKind, uint64) {
	line = bytes.TrimRight(line, "\r\n")
	switch {
	case bytes.HasPrefix(line, []byte("VALUE ")):
		v, err := strconv.ParseUint(string(line[len("VALUE "):]), 10, 64)
		if err != nil {
			return rOther, 0
		}
		return rValue, v
	case bytes.Equal(line, []byte("NOT_FOUND")):
		return rNotFound, 0
	case bytes.Equal(line, []byte("STORED")):
		return rStored, 0
	case bytes.Equal(line, []byte("TOUCHED")):
		return rTouched, 0
	case bytes.HasPrefix(line, []byte("BUSY")):
		return rBusy, 0
	case bytes.HasPrefix(line, []byte("ERROR")):
		return rError, 0
	}
	return rOther, 0
}

// preload writes keys 1..n from connection 0 with pipelined SETs and
// checks that every one was stored. The preload values are logged once;
// repeated set-ups write the same values.
func preload(w *spec, addr string, chk *checker) error {
	n := w.PreloadKeys
	if n == 0 {
		return nil
	}
	log := chk.logs[0]
	if log.n.Load() == 0 {
		for k := uint64(1); k <= n; k++ {
			log.append(k)
		}
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	const window = 256
	bw := bufio.NewWriterSize(nc, 32<<10)
	br := bufio.NewReaderSize(nc, 64<<10)
	var buf []byte
	for k := uint64(1); k <= n; {
		batch := min(n-k+1, window)
		for i := uint64(0); i < batch; i++ {
			key := k + i
			val := encodeValue(0, key)
			if w.Proto == "binary" {
				buf = wireproto.AppendRequest(buf[:0], &wireproto.Request{Op: wireproto.OpSet, ID: key, Key: key, Val: val})
			} else {
				buf = appendTextRequest(buf[:0], &pend{kind: opSet, key: key}, val, 0)
			}
			bw.Write(buf)
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		for i := uint64(0); i < batch; i++ {
			ok, err := readStored(w.Proto, br)
			if err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			if !ok {
				return fmt.Errorf("preload: a SET near key %d was not stored", k+i)
			}
		}
		k += batch
	}
	return nil
}

// readStored reads one reply and reports whether it was STORED.
func readStored(proto string, br *bufio.Reader) (bool, error) {
	if proto == "text" {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return false, err
		}
		kind, _ := parseTextReply(line)
		return kind == rStored, nil
	}
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return false, err
	}
	size := int(hdr[0]) | int(hdr[1])<<8 | int(hdr[2])<<16 | int(hdr[3])<<24
	frame := make([]byte, 4+size)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(br, frame[4:]); err != nil {
		return false, err
	}
	var resp wireproto.Response
	if err := wireproto.DecodeResponse(frame[4:], &resp); err != nil {
		return false, err
	}
	return resp.Type == wireproto.RespStored, nil
}

// probeReady dials addr until the server answers one request: LEN on a
// local server, and on a durable leader a STATS reply showing all
// followers alive, so the first measured write can reach a quorum.
func probeReady(w *spec, addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := probeOnce(w, addr)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %v: %w", addr, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func probeOnce(w *spec, addr string) error {
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(nc)
	if w.Proto == "binary" {
		if _, err := nc.Write(wireproto.AppendRequest(nil, &wireproto.Request{Op: wireproto.OpLen, ID: 1})); err != nil {
			return err
		}
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		return nil
	}
	cmd := "len\n"
	if w.Durable != nil {
		cmd = "stats\n"
	}
	if _, err := io.WriteString(nc, cmd); err != nil {
		return err
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return err
	}
	if w.Durable != nil {
		want := fmt.Sprintf("alive=%d/%d", w.Durable.Followers+1, w.Durable.Followers+1)
		if !bytes.Contains([]byte(line), []byte(want)) {
			return fmt.Errorf("followers not connected yet: %s", bytes.TrimSpace([]byte(line)))
		}
	}
	return nil
}

// logf prints progress to standard error; standard output carries only
// the report.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
