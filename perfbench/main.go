// Command perfbench is the repository's serving benchmark. It starts the
// real ffwdserve binary (plus follower processes for the durable
// workload), drives it from this one process with at most two
// connections, checks every reply, and prints the end-to-end metrics of
// one workload: medians over several rounds, each a fresh set-up and an
// equal share of -seconds. With -trace 1 it instead runs the workload
// twice, once untraced and once with the server's -trace capture and
// /metrics endpoint on, times calls into single modules on the same
// seeded op stream, and prints the per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": V, "unit": "U"}, ...}}
//
// Workload parameters are fixed in workloads.json. The command exits
// nonzero when a reply fails its integrity check or a workload completes
// no operations. Run it through run.sh, which builds both binaries:
//
//	bash perfbench/run.sh --workload bin-closed-uniform --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Settings shared by every workload.
const (
	warmup = 250 * time.Millisecond // load before each measured window
	drain  = 2 * time.Second        // wait for replies after the window
	// rounds is how many fresh set-ups and windows an untraced run
	// makes. The medians are taken over the rounds in which the
	// hypervisor stole at most quietSteal of the host's CPU time, or
	// over the minKept least-stolen rounds when fewer were that quiet.
	rounds     = 40
	quietSteal = 0.02
	minKept    = 10
	// replayOps is how many requests of the seeded stream the apps probe
	// replays into an in-process store.
	replayOps = 2_000_000
)

type bench struct {
	w       *spec
	name    string
	seed    int64
	seconds float64
	server  string // ffwdserve binary
	fsync   string // WAL policy of a durable workload's processes
	workdir string
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name from workloads.json")
		seed    = flag.Int64("seed", 1, "seed of the generated op streams")
		seconds = flag.Float64("seconds", 20, "measured time of the run, shared by its rounds or phases")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		config  = flag.String("config", "perfbench/workloads.json", "workload definitions")
		server  = flag.String("server", ".bench_build/bin/ffwdserve", "ffwdserve binary")
		workdir = flag.String("workdir", ".bench_build/work", "scratch directory for data dirs, traces and spans")
	)
	flag.Parse()

	// Every exit path stops the server processes: the deferred killAll on
	// return, the signal handler on interruption, and Pdeathsig if this
	// process dies any other way.
	defer killAll()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killAll()
		os.Exit(2)
	}()
	// A run that hangs (a server that never becomes ready, say) still
	// ends, and stops its servers, well inside the three minutes a run
	// is allowed.
	time.AfterFunc(170*time.Second, func() {
		logf("run exceeded 170s; stopping")
		killAll()
		os.Exit(1)
	})

	s, err := loadSuite(*config)
	if err != nil {
		logf("%v", err)
		return 1
	}
	w, ok := s.Workloads[*name]
	if !ok {
		logf("unknown workload %q", *name)
		return 1
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		logf("need -seconds > 0 and -trace 0 or 1")
		return 1
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	b := &bench{w: w, name: *name, seed: *seed, seconds: *seconds, server: *server, workdir: *workdir}
	if d := w.Durable; d != nil {
		b.fsync = d.UntracedFsync
		if *traced == 1 {
			b.fsync = d.Fsync
		}
	}
	var res *result
	if *traced == 0 {
		res, err = b.endToEnd()
	} else {
		res, err = b.traced()
	}
	if err != nil {
		logf("%s: %v", *name, err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp starts the workload's processes, waits for the readiness probe
// and preloads; the returned duration covers exactly that.
func (b *bench) setUp(chk *checker, traced bool) (*cluster, float64, error) {
	t0 := time.Now()
	c, err := startCluster(b.server, b.workdir, b.w, b.fsync, traced)
	if err != nil {
		return nil, 0, err
	}
	if err := probeReady(b.w, c.addr, 30*time.Second); err != nil {
		c.close()
		return nil, 0, err
	}
	if err := preload(b.w, c.addr, chk); err != nil {
		c.close()
		return nil, 0, err
	}
	return c, time.Since(t0).Seconds(), nil
}

// measured is one load phase's outcome.
type measured struct {
	res      *connResult
	window   float64 // seconds
	p50, p99 float64 // reply latency, us
	cpuTicks uint64
	steal    float64      // share of the host's CPU time stolen in the window
	counters counterDelta // traced runs only
}

// throughput is correct replies received in the window per second.
func (m *measured) throughput() float64 { return float64(m.res.inWindow) / m.window }

// cpuPerOp is the server processes' CPU time in the window per reply.
func (m *measured) cpuPerOp() float64 {
	return ratio(float64(m.cpuTicks)/clockTicksPerSec*1e6, float64(m.res.inWindow))
}

// measure runs one load phase against c: warm-up, then a window of
// length win, reading the processes' CPU time (and, traced, /metrics)
// at both ends.
func (b *bench) measure(c *cluster, chk *checker, traced bool, win time.Duration) (*measured, error) {
	p := &phase{
		w: b.w, addr: c.addr, seed: b.seed, base: time.Now(),
		start: int64(warmup), end: int64(warmup + win), drain: drain,
		chk: chk, trace: traced,
	}
	type loadOut struct {
		res *connResult
		err error
	}
	done := make(chan loadOut, 1)
	go func() {
		r, err := runLoad(p)
		done <- loadOut{r, err}
	}()
	type sample struct {
		cpu, host, steal uint64
		ctr              map[string]float64
	}
	edge := func(at int64) (sample, error) {
		time.Sleep(time.Until(p.base.Add(time.Duration(at))))
		var s sample
		var err error
		if s.cpu, err = c.cpuTicks(); err != nil {
			return s, err
		}
		if s.host, s.steal, err = hostTicks(); err != nil || !traced {
			return s, err
		}
		s.ctr, err = scrape(c.statsAddr)
		return s, err
	}
	s0, err0 := edge(p.start)
	s1, err1 := edge(p.end)
	out := <-done
	switch {
	case out.err != nil:
		return nil, out.err
	case err0 != nil:
		return nil, err0
	case err1 != nil:
		return nil, err1
	}
	return &measured{
		res: out.res, window: win.Seconds(), cpuTicks: s1.cpu - s0.cpu,
		p50: out.res.lat.quantile(0.5) / 1e3, p99: out.res.lat.quantile(0.99) / 1e3,
		steal:    ratio(float64(s1.steal-s0.steal), float64(s1.host-s0.host)),
		counters: counterDelta{s0.ctr, s1.ctr},
	}, nil
}

// endToEnd is the untraced run: several rounds, each a fresh set-up
// and a window of an equal share of the run's seconds. setup_s is the
// median over all set-ups. The other metrics are medians over the kept
// rounds: the quiet ones, during which the hypervisor stole little CPU
// time from this host, since a round that lost its CPUs to other guests
// measures the host rather than the program.
func (b *bench) endToEnd() (*result, error) {
	n := rounds
	win := time.Duration(b.seconds / float64(n) * float64(time.Second))
	fmt.Printf("workload %s seed %d: %s; %d rounds of a %.2fs window after %.2fs warm-up, medians over the rounds with at most %.0f%% host steal (at least the %d least stolen)\n",
		b.name, b.seed, b.describe(), n, win.Seconds(), warmup.Seconds(), 100*quietSteal, minKept)
	if d := b.w.Durable; d != nil {
		fmt.Printf("  durable: %d follower processes, -fsync %s, data dirs on %s\n", d.Followers, b.fsync, fsName(b.workdir))
	}
	var setups []float64
	var byRound []*measured
	total := &connResult{}
	for i := 0; i < n; i++ {
		chk := newChecker(b.w.Conns, b.w.lossless())
		c, d, err := b.setUp(chk, false)
		if err != nil {
			return nil, err
		}
		m, err := b.measure(c, chk, false, win)
		c.close()
		if err != nil {
			return nil, err
		}
		fmt.Printf("  round %d: setup %.4f s, %.1f ops/s, p50 %.1f us, p99 %.1f us (n=%d), %.3f us CPU/op over %d process(es), host steal %.1f%%\n",
			i+1, d, m.throughput(), m.p50, m.p99, len(m.res.lat), m.cpuPerOp(), len(c.procs), 100*m.steal)
		setups = append(setups, d)
		byRound = append(byRound, m)
		m.res.lat = nil // its quantiles are taken; the total needs counts only
		total.merge(m.res)
	}
	sort.SliceStable(byRound, func(i, j int) bool { return byRound[i].steal < byRound[j].steal })
	keep := min(minKept, n)
	for keep < n && byRound[keep].steal <= quietSteal {
		keep++
	}
	kept := byRound[:keep]
	fmt.Printf("  kept %d of %d rounds (host steal up to %.1f%%)\n", keep, n, 100*kept[keep-1].steal)
	over := func(f func(*measured) float64) float64 {
		xs := make([]float64, len(kept))
		for i, m := range kept {
			xs[i] = f(m)
		}
		return median(xs)
	}
	metrics := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"throughput_ops": {over((*measured).throughput), "ops/s"},
		"p50_us":         {over(func(m *measured) float64 { return m.p50 }), "us"},
		"p99_us":         {over(func(m *measured) float64 { return m.p99 }), "us"},
		"cpu_us_per_op":  {over((*measured).cpuPerOp), "us"},
	}
	for _, name := range []string{"setup_s", "throughput_ops", "p50_us", "p99_us", "cpu_us_per_op"} {
		fmt.Printf("  %-22s %14.4f %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	b.printChecks(total)
	return &result{
		Correct:   total.integrity == 0 && total.completed > 0,
		Attempted: max(total.attempted, 1),
		Failed:    total.failed(),
		Metrics:   metrics,
	}, nil
}

// printChecks prints the checker's counts: failures, order violations,
// integrity failures, and for an open loop the generator's lateness.
func (b *bench) printChecks(r *connResult) {
	fmt.Printf("  %-22s %14.6f ratio   %d of %d attempted: busy %d, error %d, unanswered %d\n",
		"fail_ratio", ratio(float64(r.failed()), float64(r.attempted)), r.failed(), r.attempted, r.busy, r.errors, r.unanswered)
	fmt.Printf("  %-22s %14.3f ppm     stale %d + from a later SET %d, of %d GETs\n",
		"order_violations_ppm", orderPPM(r), r.stale, r.future, r.gets)
	if b.w.RateOps > 0 {
		fmt.Printf("  %-22s %14.1f us      p99 %.1f us, n=%d (send time minus scheduled time)\n",
			"loadgen.late_p50_us", r.late.quantile(0.5)/1e3, r.late.quantile(0.99)/1e3, len(r.late))
	}
	fmt.Printf("  %-22s %14d count\n", "integrity_failures", r.integrity)
	if r.firstFault != "" {
		fmt.Printf("  first integrity failure: %s\n", r.firstFault)
	}
}

func orderPPM(r *connResult) float64 {
	return 1e6 * ratio(float64(r.stale+r.future), float64(r.gets))
}

func (b *bench) describe() string {
	w := b.w
	loop := fmt.Sprintf("closed loop %d conns x %d in flight", w.Conns, w.InFlight)
	if w.RateOps > 0 {
		loop = fmt.Sprintf("open loop %.0f ops/s over %d conns", w.RateOps, w.Conns)
	}
	return fmt.Sprintf("%s protocol, %s, %s keys over %d", w.Proto, loop, w.KeyDist, w.Keys)
}

// traced is the per-layer run: an untraced phase for the overhead
// baseline, then a traced phase with /metrics deltas and the server's
// trace capture, each over half the run's seconds, then the in-process
// probes.
func (b *bench) traced() (*result, error) {
	win := time.Duration(b.seconds / 2 * float64(time.Second))
	chk := newChecker(b.w.Conns, b.w.lossless())
	c, _, err := b.setUp(chk, false)
	if err != nil {
		return nil, err
	}
	base, err := b.measure(c, chk, false, win)
	c.close()
	if err != nil {
		return nil, err
	}

	chk = newChecker(b.w.Conns, b.w.lossless())
	if c, _, err = b.setUp(chk, true); err != nil {
		return nil, err
	}
	m, err := b.measure(c, chk, true, win)
	if err != nil {
		c.close()
		return nil, err
	}
	// A graceful stop makes the server write its trace capture.
	c.leader.stop(true, 10*time.Second)
	out := map[string]float64{}
	traceErr := coreTrace(c.tracePath, c.leader.logText(), out)
	c.close()
	if traceErr != nil {
		return nil, traceErr
	}

	r := m.res
	d := m.counters
	out["loadgen.sent"] = float64(r.attempted)
	out["loadgen.completed"] = float64(r.completed)
	out["loadgen.missing"] = float64(r.unanswered)
	if b.w.RateOps > 0 {
		out["loadgen.late_p50_us"] = r.late.quantile(0.5) / 1e3
		out["loadgen.late_p99_us"] = r.late.quantile(0.99) / 1e3
	}
	out["loadgen.integrity_failures"] = float64(r.integrity + base.res.integrity)
	out["fail_ratio"] = ratio(float64(r.failed()), float64(r.attempted))
	out["order_violations_ppm"] = orderPPM(r)
	if b.w.Proto == "binary" {
		out["wireproto.encode_ns_p50"] = r.enc.Quantile(0.5)
		out["wireproto.decode_ns_p50"] = r.dec.Quantile(0.5)
	}
	// Counter-derived metrics are reported for the layers whose counters
	// the server exposes in this mode.
	if d.has("ffwd_frontend_frames_in_total") {
		out["wireproto.bytes_per_op"] = ratio(d.get("ffwd_frontend_bytes_in_total")+d.get("ffwd_frontend_bytes_out_total"), d.get("ffwd_frontend_frames_in_total"))
		out["frontend.ops_per_batch"] = ratio(d.get("ffwd_frontend_batch_ops_total"), d.get("ffwd_frontend_batches_total"))
		out["frontend.batch_p99"] = d.gauge("ffwd_frontend_batch_p99")
		out["frontend.flushes_per_op"] = ratio(d.get("ffwd_frontend_flushes_total"), d.get("ffwd_frontend_frames_in_total"))
		out["frontend.queue_sheds"] = d.get("ffwd_frontend_queue_sheds_total")
		out["frontend.decode_errors"] = d.get("ffwd_frontend_decode_errors_total")
	}
	if d.has("ffwdserve_busy_sheds_total") {
		out["textfront.busy_sheds"] = d.get("ffwdserve_busy_sheds_total")
	}
	if d.has("ffwd_sweeps_total") {
		out["core.requests_per_sweep"] = ratio(d.get("ffwd_requests_total"), d.get("ffwd_sweeps_total"))
	}
	if d.has("ffwd_expiry_expired_total") {
		out["expiry.expired"] = d.get("ffwd_expiry_expired_total")
	}
	if d.has("ffwd_maintain_runs_total") {
		out["expiry.maintain_units_per_run"] = ratio(d.get("ffwd_maintain_units_total"), d.get("ffwd_maintain_runs_total"))
	}
	if d.has("ffwd_wal_appends_total") {
		out["replica.snapshots_per_kwrite"] = 1000 * ratio(d.get("ffwd_replica_snapshots_total"), d.get("ffwd_wal_appends_total"))
		out["replog.syncs_per_write"] = ratio(d.get("ffwd_wal_syncs_total"), d.get("ffwd_wal_appends_total"))
	}
	out["trace_overhead.throughput_ratio"] = ratio(m.throughput(), base.throughput())
	out["trace_overhead.p50_ratio"] = ratio(m.p50, base.p50)

	// In-process probes on the same seeded op stream.
	probes := timer{base: time.Now(), spans: &r.spans}
	store := appsReplay(b.w, b.seed, replayOps, probes, out)
	if b.w.Durable != nil {
		dir, err := os.MkdirTemp(b.workdir, "probe-")
		if err != nil {
			return nil, err
		}
		err = replogProbe(filepath.Join(dir, "replog"), store.EncodeState(), probes, out)
		if err == nil {
			err = reptransProbe(filepath.Join(dir, "reptrans"), b.w, probes, out)
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
	}

	spanPath := filepath.Join(b.workdir, "spans-"+b.name+".json")
	if err := writeSpans(spanPath, r.spans.spans); err != nil {
		return nil, err
	}

	fmt.Printf("workload %s seed %d, traced: %s; untraced then traced phase, each a %.2fs window after %.2fs warm-up\n",
		b.name, b.seed, b.describe(), win.Seconds(), warmup.Seconds())
	if d := b.w.Durable; d != nil {
		fmt.Printf("  durable: %d follower processes, -fsync %s, data dirs on %s\n", d.Followers, b.fsync, fsName(b.workdir))
	}
	fmt.Printf("  untraced phase: %.1f ops/s, p50 %.1f us; traced phase: %.1f ops/s, p50 %.1f us\n",
		base.throughput(), base.p50, m.throughput(), m.p50)
	b.printChecks(r)
	fmt.Printf("  spans: %d written to %s (%d dropped once buffers filled)\n", len(r.spans.spans), spanPath, r.spans.drops)
	metrics := map[string]metric{}
	for _, pl := range perLayer {
		v, ran := out[pl.name]
		if !ran {
			fmt.Printf("  %-36s %14s %-8s layer not run by this workload\n", pl.name, "-", pl.unit)
		} else {
			fmt.Printf("  %-36s %14.4f %s\n", pl.name, v, pl.unit)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[pl.name] = metric{v, pl.unit}
	}
	return &result{
		Correct:   r.integrity == 0 && base.res.integrity == 0 && r.completed > 0 && base.res.completed > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed(),
		Metrics:   metrics,
	}, nil
}

// perLayer lists the traced run's metrics in report order, with units.
// A metric of a layer the workload does not run reads 0 in the JSON and
// "-" in the table.
var perLayer = []struct{ name, unit string }{
	{"loadgen.sent", "count"},
	{"loadgen.completed", "count"},
	{"loadgen.missing", "count"},
	{"loadgen.late_p50_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.integrity_failures", "count"},
	{"fail_ratio", "ratio"},
	{"order_violations_ppm", "ppm"},
	{"wireproto.encode_ns_p50", "ns"},
	{"wireproto.decode_ns_p50", "ns"},
	{"wireproto.bytes_per_op", "bytes/op"},
	{"frontend.ops_per_batch", "ops/batch"},
	{"frontend.batch_p99", "ops"},
	{"frontend.flushes_per_op", "ratio"},
	{"frontend.queue_sheds", "count"},
	{"frontend.decode_errors", "count"},
	{"textfront.busy_sheds", "count"},
	{"core.slot_wait_p50_ns", "ns"},
	{"core.slot_wait_p99_ns", "ns"},
	{"core.service_p50_ns", "ns"},
	{"core.service_p99_ns", "ns"},
	{"core.resp_wait_p50_ns", "ns"},
	{"core.resp_wait_p99_ns", "ns"},
	{"core.round_trip_p50_ns", "ns"},
	{"core.round_trip_p99_ns", "ns"},
	{"core.parks_per_kop", "1/kop"},
	{"core.wakes_per_kop", "1/kop"},
	{"core.requests_per_sweep", "ratio"},
	{"core.trace_partial_ratio", "ratio"},
	{"core.trace_drops", "count"},
	{"apps.get_ns_p50", "ns"},
	{"apps.set_ns_p50", "ns"},
	{"apps.hit_ratio", "ratio"},
	{"apps.evictions", "count"},
	{"apps.snapshot_encode_ms", "ms"},
	{"expiry.expired", "count"},
	{"expiry.maintain_units_per_run", "ratio"},
	{"replica.snapshots_per_kwrite", "1/kwrite"},
	{"replog.append_us_p50", "us"},
	{"replog.sync_us_p50", "us"},
	{"replog.sync_us_p99", "us"},
	{"replog.snapshot_save_ms", "ms"},
	{"replog.syncs_per_write", "ratio"},
	{"reptrans.rtt_us_p50", "us"},
	{"reptrans.rtt_us_p99", "us"},
	{"trace_overhead.throughput_ratio", "ratio"},
	{"trace_overhead.p50_ratio", "ratio"},
}

// fsName names the filesystem holding path, for the durable report.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "an unknown filesystem"
	}
	switch st.Type {
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("filesystem type %#x", st.Type)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
