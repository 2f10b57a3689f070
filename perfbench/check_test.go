package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"testing"
	"time"

	"ffwd/internal/wireproto"
)

// The mutant leg: a strictly ordered in-memory server with one planted
// defect. The clean server must pass every check; each defect must be
// flagged and counted in the metric it belongs to.

type defect int

const (
	clean        defect = iota
	foreignValue        // a GET answers the value of another key
	staleValue          // a GET answers the value before the key's latest SET
	futureValue         // a GET is answered with a SET sent after it
	lostWrite           // a GET of a written key answers NOT_FOUND
	dropReply           // one reply is never sent (text: none after it)
	busyReply           // one request is answered BUSY
)

type fakeReq struct {
	op  opKind
	id  uint64
	key uint64
	val uint64
}

type fakeRep struct {
	id   uint64
	kind replyKind
	val  uint64
}

// fakeStore applies requests in arrival order and plants its defect
// once, after a few requests.
type fakeStore struct {
	defect  defect
	text    bool
	hist    map[uint64][]uint64 // every value written to a key, in order
	n       int
	planted bool
	silent  bool      // text dropReply: answers nothing more
	held    *fakeReq  // futureValue: the GET waiting for a later SET
	heldBuf []fakeReq // requests that arrived behind it
}

func (f *fakeStore) answer(r fakeReq, emit func(fakeRep)) {
	if r.op == opGet {
		h := f.hist[r.key]
		if len(h) == 0 {
			emit(fakeRep{r.id, rNotFound, 0})
			return
		}
		emit(fakeRep{r.id, rValue, h[len(h)-1]})
		return
	}
	f.hist[r.key] = append(f.hist[r.key], r.val)
	emit(fakeRep{r.id, rStored, 0})
}

func (f *fakeStore) handle(r fakeReq, emit func(fakeRep)) {
	f.n++
	if f.held != nil {
		f.heldBuf = append(f.heldBuf, r)
		h, buf := *f.held, f.heldBuf
		if r.op == opSet && r.key == h.key {
			// Apply the later SET first and let the GET see it.
			f.hist[r.key] = append(f.hist[r.key], r.val)
			emit(fakeRep{h.id, rValue, r.val})
			for _, b := range buf[:len(buf)-1] {
				f.answer(b, emit)
			}
			emit(fakeRep{r.id, rStored, 0})
			f.held, f.heldBuf, f.planted = nil, nil, true
		} else if len(buf) >= 3 {
			// No SET to the key arrived within the client's window.
			f.held, f.heldBuf = nil, nil
			f.answer(h, emit)
			for _, b := range buf {
				f.answer(b, emit)
			}
		}
		return
	}
	if f.silent {
		return
	}
	if !f.planted && f.n > 20 {
		h := f.hist[r.key]
		switch {
		case f.defect == foreignValue && r.op == opGet:
			for k, o := range f.hist {
				if k != r.key && len(o) > 0 {
					emit(fakeRep{r.id, rValue, o[len(o)-1]})
					f.planted = true
					return
				}
			}
		case f.defect == staleValue && r.op == opGet && len(h) >= 2:
			emit(fakeRep{r.id, rValue, h[len(h)-2]})
			f.planted = true
			return
		case f.defect == futureValue && r.op == opGet:
			f.held = &r
			return
		case f.defect == lostWrite && r.op == opGet && len(h) > 0:
			emit(fakeRep{r.id, rNotFound, 0})
			f.planted = true
			return
		case f.defect == dropReply:
			f.planted, f.silent = true, f.text
			return
		case f.defect == busyReply:
			emit(fakeRep{r.id, rBusy, 0})
			f.planted = true
			return
		}
	}
	f.answer(r, emit)
}

// serveFake accepts one connection and serves it until it closes; the
// returned channel is closed once the server is done with f.
func serveFake(t *testing.T, f *fakeStore) (string, chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer ln.Close()
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		w := bufio.NewWriter(nc)
		if f.text {
			serveFakeText(nc, w, f)
		} else {
			serveFakeBinary(nc, w, f)
		}
	}()
	return ln.Addr().String(), done
}

func serveFakeBinary(nc net.Conn, w *bufio.Writer, f *fakeStore) {
	buf := make([]byte, 64<<10)
	n := 0
	var req wireproto.Request
	var out []byte
	emit := func(r fakeRep) {
		resp := wireproto.Response{ID: r.id, Val: r.val}
		switch r.kind {
		case rValue:
			resp.Type = wireproto.RespValue
		case rNotFound:
			resp.Type = wireproto.RespNotFound
		case rStored:
			resp.Type = wireproto.RespStored
		case rBusy:
			resp.Type = wireproto.RespBusy
		}
		out = wireproto.AppendResponse(out[:0], &resp)
		w.Write(out)
	}
	for {
		m, err := nc.Read(buf[n:])
		if err != nil {
			return
		}
		n += m
		for {
			body, used, err := wireproto.Split(buf[:n])
			if err != nil {
				break
			}
			if wireproto.DecodeRequest(body, &req) != nil {
				return
			}
			r := fakeReq{id: req.ID, key: req.Key, val: req.Val, op: opGet}
			if req.Op == wireproto.OpSet {
				r.op = opSet
			}
			f.handle(r, emit)
			n = copy(buf, buf[used:n])
		}
		w.Flush()
	}
}

func serveFakeText(nc net.Conn, w *bufio.Writer, f *fakeStore) {
	emit := func(r fakeRep) {
		switch r.kind {
		case rValue:
			fmt.Fprintf(w, "VALUE %d\n", r.val)
		case rNotFound:
			w.WriteString("NOT_FOUND\n")
		case rStored:
			w.WriteString("STORED\n")
		case rBusy:
			w.WriteString("BUSY delegation pool saturated\n")
		}
	}
	br := bufio.NewReader(nc)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return
		}
		fs := bytes.Fields(line)
		r := fakeReq{op: opGet}
		r.key, _ = strconv.ParseUint(string(fs[1]), 10, 64)
		if string(fs[0]) == "set" {
			r.op = opSet
			r.val, _ = strconv.ParseUint(string(fs[2]), 10, 64)
		}
		f.handle(r, emit)
		if br.Buffered() == 0 {
			w.Flush()
		}
	}
}

// runFake drives one closed-loop connection for 300ms against a fake
// server with the given defect.
func runFake(t *testing.T, proto string, d defect) *connResult {
	t.Helper()
	w := &spec{
		Proto: proto, Capacity: 16, Keys: 4, KeyDist: "uniform", Conns: 1, InFlight: 4,
		Mix: mix{Get: 50, Set: 50},
	}
	if err := w.validate(); err != nil {
		t.Fatal(err)
	}
	f := &fakeStore{defect: d, text: proto == "text", hist: map[uint64][]uint64{}}
	addr, served := serveFake(t, f)
	p := &phase{
		w: w, addr: addr, seed: 7, base: time.Now(),
		start: 0, end: int64(300 * time.Millisecond), drain: 300 * time.Millisecond,
		chk: newChecker(1, true),
	}
	res, err := runLoad(p)
	if err != nil {
		t.Fatal(err)
	}
	<-served
	if d != clean && d != futureValue && !f.planted {
		t.Fatalf("defect %d was never planted", d)
	}
	return res
}

func TestCheckerFlagsPlantedDefects(t *testing.T) {
	for _, proto := range []string{"binary", "text"} {
		t.Run(proto, func(t *testing.T) {
			r := runFake(t, proto, clean)
			if r.integrity != 0 || r.stale != 0 || r.future != 0 || r.failed() != 0 || r.completed == 0 {
				t.Fatalf("clean server: integrity %d stale %d future %d failed %d completed %d (%s)",
					r.integrity, r.stale, r.future, r.failed(), r.completed, r.firstFault)
			}
			if len(r.lat) != int(r.completed) {
				t.Fatalf("clean server: %d latencies for %d completions", len(r.lat), r.completed)
			}

			if r := runFake(t, proto, foreignValue); r.integrity == 0 {
				t.Errorf("value of another key: no integrity failure")
			}
			if r := runFake(t, proto, staleValue); r.stale == 0 || r.integrity != 0 {
				t.Errorf("stale own value: stale %d integrity %d", r.stale, r.integrity)
			}
			if r := runFake(t, proto, futureValue); r.future == 0 || r.integrity != 0 {
				t.Errorf("value from a later SET: future %d integrity %d", r.future, r.integrity)
			}
			if r := runFake(t, proto, lostWrite); r.stale == 0 || r.integrity != 0 {
				t.Errorf("lost own write: stale %d integrity %d", r.stale, r.integrity)
			}
			r = runFake(t, proto, dropReply)
			if r.unanswered == 0 || r.failed() != r.unanswered || r.integrity != 0 {
				t.Errorf("missing reply: unanswered %d failed %d integrity %d", r.unanswered, r.failed(), r.integrity)
			}
			if proto == "binary" && r.unanswered != 1 {
				t.Errorf("one missing reply counted %d times", r.unanswered)
			}
			r = runFake(t, proto, busyReply)
			if r.busy != 1 || r.failed() != 1 || r.integrity != 0 {
				t.Errorf("BUSY reply: busy %d failed %d integrity %d", r.busy, r.failed(), r.integrity)
			}
			if len(r.lat) != int(r.completed) || r.attempted != r.completed+1 {
				t.Errorf("BUSY reply: %d latencies, %d completed, %d attempted", len(r.lat), r.completed, r.attempted)
			}
		})
	}
}

func TestValueEncodingAvoidsReserved(t *testing.T) {
	for _, c := range []uint64{0, 1, 2} {
		v := encodeValue(c, 1<<connShift-1)
		if v == ^uint64(0) {
			t.Fatalf("conn %d: largest value is the reserved word", c)
		}
		if gc, gs := decodeValue(v); gc != c || gs != 1<<connShift-1 {
			t.Fatalf("round trip (%d, %d) gave (%d, %d)", c, uint64(1<<connShift-1), gc, gs)
		}
	}
}
