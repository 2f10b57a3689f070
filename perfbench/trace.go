package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"

	"ffwd/internal/obs"
)

// This file is the traced run's measurement: client-side spans kept in
// memory and written out when the run ends, /metrics counter deltas,
// and the analysis of the server's own -trace capture.

type spanName uint8

const (
	spanRequest spanName = iota // send → decoded reply, ID = request ID
	spanEncode                  // AppendRequest (binary) or line format (text)
	spanDecode                  // Split+DecodeResponse (binary) or line parse (text)
	spanAppsGet
	spanAppsSet
	spanEncodeState
	spanReplogAppend
	spanReplogSync
	spanReplogSnapshot
	spanReptransRTT
)

var spanNames = [...]string{
	spanRequest:        "request",
	spanEncode:         "encode",
	spanDecode:         "decode",
	spanAppsGet:        "apps.KVStore.Get",
	spanAppsSet:        "apps.KVStore.Set",
	spanEncodeState:    "apps.KVStore.EncodeState",
	spanReplogAppend:   "replog.Store.AppendEntries",
	spanReplogSync:     "replog.Store.Sync",
	spanReplogSnapshot: "replog.Store.SaveSnapshot",
	spanReptransRTT:    "reptrans.Peer.Replicate",
}

// span is one timed interval; spans of one request share (tid, id).
// Times are nanoseconds since the phase base.
type span struct {
	name       spanName
	tid        uint64 // connection, or 0 for in-process probes
	id         uint64
	start, end int64
}

// spanBufCap bounds each recording goroutine's span buffer. Buffers
// record until full and count the rest as drops, like the server's
// trace rings.
const spanBufCap = 1 << 16

type spanBuf struct {
	spans []span
	drops uint64
}

func (b *spanBuf) add(name spanName, tid, id uint64, start, end int64) {
	if len(b.spans) >= spanBufCap {
		b.drops++
		return
	}
	b.spans = append(b.spans, span{name: name, tid: tid, id: id, start: start, end: end})
}

func (b *spanBuf) merge(o *spanBuf) {
	b.spans = append(b.spans, o.spans...)
	b.drops += o.drops
}

// writeSpans writes the spans as Chrome trace_event JSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d}}",
			spanNames[s.name], s.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id)
	}
	io.WriteString(w, "\n]}\n")
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// scrape reads the server's Prometheus /metrics page into a map of
// unlabelled series.
func scrape(statsAddr string) (map[string]float64, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + statsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// counterDelta is the change of each counter across the window.
type counterDelta struct{ before, after map[string]float64 }

func (d counterDelta) get(name string) float64 { return d.after[name] - d.before[name] }

// has reports whether the server exposes the series.
func (d counterDelta) has(name string) bool {
	_, ok := d.after[name]
	return ok
}

// gauge is a series' value at the end of the window.
func (d counterDelta) gauge(name string) float64 { return d.after[name] }

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var reTraceWritten = regexp.MustCompile(`wrote (\d+) trace events to .* \((\d+) dropped\)`)

// coreTrace summarizes the server's -trace capture: per-phase round
// trip latencies from obs.Attribute and park/wake counts per 1000
// attributed operations.
func coreTrace(path, serverLog string, out map[string]float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	evs, err := obs.ReadChrome(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	bd := obs.Attribute(evs)
	kinds := obs.CountByKind(evs)
	for _, ph := range []struct {
		name string
		q    func(float64) float64
	}{
		{"slot_wait", bd.SlotWait.Quantile},
		{"service", bd.Service.Quantile},
		{"resp_wait", bd.RespWait.Quantile},
		{"round_trip", bd.Total.Quantile},
	} {
		out["core."+ph.name+"_p50_ns"] = ph.q(0.50)
		out["core."+ph.name+"_p99_ns"] = ph.q(0.99)
	}
	out["core.parks_per_kop"] = 1000 * ratio(float64(kinds[obs.KindPark]), float64(bd.Ops))
	out["core.wakes_per_kop"] = 1000 * ratio(float64(kinds[obs.KindWake]), float64(bd.Ops))
	out["core.trace_partial_ratio"] = ratio(float64(bd.Partial), float64(bd.Ops+bd.Partial))
	m := reTraceWritten.FindStringSubmatch(serverLog)
	if m == nil {
		return fmt.Errorf("server log has no trace summary line")
	}
	drops, _ := strconv.ParseFloat(m[2], 64)
	out["core.trace_drops"] = drops
	return nil
}
