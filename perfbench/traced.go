package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"firstaid/internal/app"
	"firstaid/internal/apps"
	"firstaid/internal/core"
	"firstaid/internal/fleet"
	"firstaid/internal/ledger"
	"firstaid/internal/patch"
	"firstaid/internal/replay"
	"firstaid/internal/telemetry"
	"firstaid/internal/trace"
)

// The traced run measures the serving path layer by layer, in process. The
// program is not instrumented: every span is recorded here, around a call
// into a layer's public API. Two passes replay the same frames, each from
// fresh state, so both serve the whole workload at the same length:
//
//	fleet  a Fleet behind fleet.Server, two closed-loop submitters; on each
//	       connection every other frame goes through
//	       fleet.Server.ServeHTTP, the rest through the calls the handler
//	       makes, fleet.DecodeBatch (or the JSON decode) and Fleet.DoBatch
//	       (or Fleet.Do); /metrics and /patches are read at the end
//	core   per worker, a core.Supervisor and a core.Machine driver served
//	       the worker's share of each frame in turn (see corePass)
//
// The driver's calls carry a span each; the supervisor's IngestBatch
// carries one per share. On the same clean shares the driver is the traced
// run and the supervisor the untraced one: their walls must agree, and
// their ratio is the tracing overhead.

// layer names a timed call.
type layer uint8

const (
	lHandler  layer = iota // fleet.Server.ServeHTTP
	lDecode                // fleet.DecodeBatch, or the JSON decode of POST /events
	lDispatch              // Fleet.DoBatch or Fleet.Do
	lIngest                // core.Supervisor.IngestBatch or Ingest
	lShare                 // the machine driver's whole share of one frame
	lAppend                // replay.Log.AppendBatch
	lPoll                  // Ckpt.MaybeCheckpoint that took no checkpoint
	lTake                  // Ckpt.MaybeCheckpoint that took one
	lExtState              // allocext.Ext.State, the allocator-extension part of a take
	lRefresh               // Machine.CloneForSpeculation: the standby refresh
	lStep                  // Machine.Step
	nLayers
)

var layerNames = [nLayers]string{"fleet.handler", "fleet.decode", "fleet.dispatch", "core.ingest",
	"machine.share", "replay.append", "checkpoint.poll", "checkpoint.take", "checkpoint.allocext_state",
	"spec.refresh", "machine.step"}

// parentOf is the layer whose call causes this one on the serving path.
var parentOf = [nLayers]layer{lHandler, lHandler, lHandler, lDispatch, lIngest, lShare, lShare,
	lShare, lTake, lShare, lShare}

// span is one timed call, tagged with the request (frame) it served.
type span struct {
	frame  int32
	worker int8
	layer  layer
	start  int64 // ns from the start of the traced run
	dur    int64 // ns
}

// recorder keeps one goroutine's spans in memory.
type recorder struct {
	base  time.Time
	spans []span
}

// rec records a span that began at t0 and ends now, and returns now.
func (r *recorder) rec(frame, worker int, l layer, t0 time.Time) time.Time {
	now := time.Now()
	r.spans = append(r.spans, span{int32(frame), int8(worker), l, int64(t0.Sub(r.base)), int64(now.Sub(t0))})
	return now
}

// loop is the wall of one goroutine's pass and the spans it recorded.
type loop struct {
	wall  time.Duration
	spans []span
}

// covered returns the time the loop spent inside the given layers, and
// its wall, in ns.
func (lp loop) covered(ls ...layer) (in, wall float64) {
	for _, s := range lp.spans {
		for _, l := range ls {
			if s.layer == l {
				in += float64(s.dur)
			}
		}
	}
	return in, float64(lp.wall)
}

func newProgram(name string) func() app.Program {
	return func() app.Program {
		prog, err := apps.New(name)
		if err != nil {
			panic(err) // the name was checked when the workload was generated
		}
		return prog
	}
}

// serveConfig is firstaid-serve's default configuration at -workers 2.
func serveConfig() fleet.Config {
	return fleet.Config{Workers: workers, Dispatch: fleet.HashBySource, Supervisor: core.Config{Speculate: true}}
}

// writer is a reusable http.ResponseWriter: the handler writes into it
// and the pass keeps the body for checking after the timed loop.
type writer struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *writer) Header() http.Header { return w.h }
func (w *writer) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *writer) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}
func (w *writer) reset() {
	clear(w.h)
	w.code = 0
	w.body.Reset()
}

func newWriter() *writer { return &writer{h: http.Header{}} }

// get serves one GET through the handler and returns the body.
func get(h http.Handler, path string) ([]byte, error) {
	w := newWriter()
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	h.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, w.code, bytes.TrimSpace(w.body.Bytes()))
	}
	return w.body.Bytes(), nil
}

// metricsOf reads /metrics through the handler.
func metricsOf(h http.Handler) (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	body, err := get(h, "/metrics")
	if err == nil {
		err = json.Unmarshal(body, &snap)
	}
	return snap, err
}

// runtimeSample reads the Go runtime's cumulative CPU and allocation
// counters after a collection (which brings the CPU estimates up to date).
type runtimeSample struct{ gc, total, idle, allocs float64 }

func sampleRuntime() runtimeSample {
	runtime.GC()
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		if v.Kind() == metrics.KindUint64 {
			return float64(v.Uint64())
		}
		return v.Float64()
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}

// fleetRun is what a fleet pass measured.
type fleetRun struct {
	wall  time.Duration
	loops [conns]loop
	snap  telemetry.Snapshot // /metrics after the window
	// recovery is /metrics after the recovery probes, on workloads that
	// send them (else snap).
	recovery telemetry.Snapshot
	rt0      runtimeSample
	rt1      runtimeSample
}

// fleetPass serves every frame through an in-process fleet and checks
// each reply, the server counts and the final summary.
func fleetPass(w *workload, base time.Time) (*fleetRun, error) {
	f := fleet.New(newProgram(w.spec.app), serveConfig())
	defer f.Close()
	h := fleet.NewServer(f)
	out := &fleetRun{}
	replies := make([]reply, len(w.frames))
	errs := make([]error, conns)
	out.rt0 = sampleRuntime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.loops[c], errs[c] = fleetLoop(w, c, f, h, replies, &recorder{base: base})
		}()
	}
	wg.Wait()
	out.wall = time.Since(t0)
	out.rt1 = sampleRuntime()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var client tally
	for i := range w.frames {
		if err := w.frames[i].check(replies[i]); err != nil {
			return nil, fmt.Errorf("traced request %d: %w", i, err)
		}
		client.add(replies[i])
	}
	var err error
	if out.snap, err = metricsOf(h); err != nil {
		return nil, err
	}
	body, err := get(h, "/patches")
	if err != nil {
		return nil, err
	}
	pool, err := patch.Load(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	c := out.snap.Counters
	server := tally{
		events:     int(c["fleet.completed"]),
		failures:   int(c["core.failures"]),
		recoveries: int(c["core.recoveries"]),
		skipped:    int(c["core.skipped_events"]),
		patches:    int(c["patch.generated"]),
		active:     len(pool.Active()),
	}
	if err := w.expect(server); err != nil {
		return nil, err
	}
	client.patches, client.active = server.patches, server.active

	// As in an end-to-end run, workloads with no undiagnosable failure in
	// their window recover only in the probes sent after it.
	out.recovery = out.snap
	if len(w.probes) > 0 {
		var items []fleet.BatchItem
		for i := range w.probes {
			fr := &w.probes[i]
			var rp reply
			items, err = fleet.DecodeBatch(fr.body, items[:0])
			if err == nil {
				var br fleet.BatchResult
				if br, err = f.DoBatch(items); err == nil {
					rp, err = batchReply(br)
				}
			}
			if err == nil {
				err = fr.check(rp)
			}
			if err != nil {
				return nil, fmt.Errorf("traced probe %d: %w", i, err)
			}
			client.add(rp)
		}
		if out.recovery, err = metricsOf(h); err != nil {
			return nil, err
		}
	}
	st := f.Close()
	sum := summary{requests: int(st.Requests), workers: st.Workers, failures: st.Core.Failures,
		recoveries: st.Core.Recoveries, skipped: st.Core.Skipped, patchesMade: st.Core.PatchesMade, activeNow: st.ActivePatches}
	return out, agree(sum, client)
}

// fleetLoop is one connection's closed loop of a fleet pass: every other
// frame, from its first, goes through the HTTP handler; the rest through
// the decode and dispatch calls the handler makes.
func fleetLoop(w *workload, c int, f *fleet.Fleet, h http.Handler, replies []reply, r *recorder) (loop, error) {
	rw := newWriter()
	var bodies [][]byte
	var handled []int
	var items []fleet.BatchItem
	var rd bytes.Reader
	t0 := time.Now()
	k := 0
	for i := range w.frames {
		fr := &w.frames[i]
		if fr.conn != c {
			continue
		}
		k++
		isJSON := fr.json(w.spec)
		if k%2 == 1 {
			path := "/events/batch"
			if isJSON {
				path = "/events"
			}
			rd.Reset(fr.body)
			req, err := http.NewRequest(http.MethodPost, path, io.NopCloser(&rd))
			if err != nil {
				return loop{}, err
			}
			rw.reset()
			t := time.Now()
			h.ServeHTTP(rw, req)
			r.rec(i, -1, lHandler, t)
			if rw.code != http.StatusOK {
				return loop{}, fmt.Errorf("traced request %d: %d %s", i, rw.code, bytes.TrimSpace(rw.body.Bytes()))
			}
			bodies = append(bodies, append([]byte(nil), rw.body.Bytes()...))
			handled = append(handled, i)
			continue
		}
		var err error
		t := time.Now()
		if isJSON {
			var rq fleet.Request
			err = json.Unmarshal(fr.body, &rq)
			t = r.rec(i, -1, lDecode, t)
			if err == nil {
				var res fleet.Result
				res, err = f.Do(rq)
				r.rec(i, -1, lDispatch, t)
				if err == nil {
					replies[i], err = eventReply(res)
				}
			}
		} else {
			items, err = fleet.DecodeBatch(fr.body, items[:0])
			t = r.rec(i, -1, lDecode, t)
			if err == nil {
				var br fleet.BatchResult
				br, err = f.DoBatch(items)
				r.rec(i, -1, lDispatch, t)
				if err == nil {
					replies[i], err = batchReply(br)
				}
			}
		}
		if err != nil {
			return loop{}, fmt.Errorf("traced request %d: %w", i, err)
		}
	}
	lp := loop{wall: time.Since(t0), spans: r.spans}
	for j, i := range handled {
		var err error
		if replies[i], err = decodeReply(bodies[j], w.frames[i].json(w.spec)); err != nil {
			return loop{}, fmt.Errorf("traced request %d: %w", i, err)
		}
	}
	return lp, nil
}

// corePass serves each worker's shares twice over, a frame at a time, the
// workers side by side as in the fleet: once through a core.Supervisor
// (IngestBatch or Ingest, one span per share) and, for clean frames, once
// through a core.Machine driven the way the supervisor drives it on clean
// traffic — record the share, then per event advance the visibility fence
// and run the drain loop (Ckpt.MaybeCheckpoint, CloneForSpeculation after
// each checkpoint taken, Step) with every call timed. Alternating the two
// per frame exposes both to the same moment of a shared host, so their
// per-share walls compare. It returns each share's supervisor ingest time
// and its machine-driver wall without the allocext-state probe, both
// indexed [frame][worker].
func corePass(w *workload, sh [][workers][]replay.Item, base time.Time) (loops [workers]loop, ingest, drive [][workers]time.Duration, err error) {
	ingest = make([][workers]time.Duration, len(w.frames))
	drive = make([][workers]time.Duration, len(w.frames))
	replies := make([][workers]reply, len(w.frames))
	errs := make([]error, workers)
	newProg := newProgram(w.spec.app)
	pool, drvPool := patch.NewPool(newProg().Name()), patch.NewPool(newProg().Name())
	ldg, trc := ledger.New(0), trace.New(0)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		cfg := serveConfig().Supervisor
		cfg.Pool, cfg.Ledger = pool, ldg
		cfg.Machine.Metrics, cfg.Machine.Trace, cfg.Machine.TraceWorker = telemetry.NewRegistry(), trc, wk
		sup := core.NewSupervisor(newProg(), replay.NewLog(), cfg)
		d := newDriver(newProg(), drvPool, trc, wk)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &recorder{base: base}
			t0 := time.Now()
			for i := range w.frames {
				items := sh[i][wk]
				if len(items) == 0 {
					continue
				}
				rp := &replies[i][wk]
				t := time.Now()
				if w.frames[i].json(w.spec) {
					ir := sup.Ingest(string(items[0].Kind), string(items[0].Data), items[0].N)
					ingest[i][wk] = r.rec(i, wk, lIngest, t).Sub(t)
					*rp = reply{events: 1, recovered: b2i(ir.Recovered), skipped: b2i(ir.Skipped), failures: b2i(ir.Failed)}
				} else {
					br := sup.IngestBatch(items)
					ingest[i][wk] = r.rec(i, wk, lIngest, t).Sub(t)
					*rp = reply{events: br.Events, recovered: br.Recoveries, skipped: br.Skipped, failures: br.Failures}
				}
				if w.frames[i].kind == cleanFrame {
					if drive[i][wk], errs[wk] = d.share(r, i, items); errs[wk] != nil {
						return
					}
				}
			}
			loops[wk] = loop{wall: time.Since(t0), spans: r.spans}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return loops, nil, nil, err
	}
	var server tally
	for i := range w.frames {
		var rp reply
		for wk, s := range replies[i] {
			rp.events += s.events
			rp.failures += s.failures
			rp.recovered += s.recovered
			rp.skipped += s.skipped
			rp.perWorker[wk] = s.events
		}
		if err := w.frames[i].check(rp); err != nil {
			return loops, nil, nil, fmt.Errorf("core pass, request %d: %w", i, err)
		}
		server.add(rp)
	}
	server.patches = pool.Len()
	server.active = len(pool.Active())
	return loops, ingest, drive, w.expect(server)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// driver runs one worker's machine the way the supervisor does.
type driver struct {
	m       *core.Machine
	wk      int
	standby *core.Machine // held, like the supervisor's, until the next refresh
}

func newDriver(prog app.Program, pool *patch.Pool, trc *trace.Tracer, wk int) *driver {
	mcfg := serveConfig().Supervisor.Machine
	mcfg.Metrics, mcfg.Trace, mcfg.TraceWorker = telemetry.NewRegistry(), trc, wk
	m := core.NewMachine(prog, replay.NewLog(), mcfg)
	bound := pool.Bind(m.Proc.Sites)
	m.SetPatches(bound)
	bound.SetMetrics(m.Tel)
	// The supervisor pre-warms a standby at checkpoint #0.
	return &driver{m: m, wk: wk, standby: m.CloneForSpeculation()}
}

// share records and executes one clean share, as Supervisor.IngestBatch
// does, and returns its wall without the allocext-state probe.
func (d *driver) share(r *recorder, frame int, items []replay.Item) (time.Duration, error) {
	m, wk := d.m, d.wk
	start := time.Now()
	var probe time.Duration
	first := m.Log.AppendBatch(items)
	t := r.rec(frame, wk, lAppend, start)
	for seq := first; seq < first+len(items); seq++ {
		m.Log.SetFence(seq + 1)
		for {
			cp := m.Ckpt.MaybeCheckpoint()
			if cp == nil {
				t = r.rec(frame, wk, lPoll, t)
			} else {
				t = r.rec(frame, wk, lTake, t)
				_ = m.Ext.State()
				t2 := r.rec(frame, wk, lExtState, t)
				probe += t2.Sub(t)
				d.standby = m.CloneForSpeculation()
				t = r.rec(frame, wk, lRefresh, t2)
			}
			m.SyncClock() // inside the step span: the supervisor calls it right before Step
			f, ok := m.Step()
			t = r.rec(frame, wk, lStep, t)
			if !ok {
				break
			}
			if f != nil {
				return 0, fmt.Errorf("machine driver: clean event %d of request %d faulted: %v", seq, frame, f)
			}
		}
	}
	m.Log.ClearFence()
	r.rec(frame, wk, lShare, start)
	return time.Since(start) - probe, nil
}

// writeSpans writes every span, one per line: frame, worker (-1 for the
// fleet layers), layer, parent layer, start and duration in ns.
func writeSpans(path string, loops ...loop) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "frame\tworker\tlayer\tparent\tstart_ns\tdur_ns")
	for _, lp := range loops {
		for _, s := range lp.spans {
			fmt.Fprintf(bw, "%d\t%d\t%s\t%s\t%d\t%d\n", s.frame, s.worker, layerNames[s.layer], layerNames[parentOf[s.layer]], s.start, s.dur)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRun runs the two in-process passes and derives the per-layer
// metrics.
func tracedRun(ctx context.Context, w *workload, spansPath string, log io.Writer) (*result, error) {
	base := time.Now()
	sh := w.shares()
	traced, err := fleetPass(w, base)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	coreLoops, ingest, share, err := corePass(w, sh, base)
	if err != nil {
		return nil, err
	}

	// Per-layer totals over every span.
	var sum [nLayers]float64
	var count [nLayers]int
	var events [nLayers]int
	var refresh []span
	all := append(append([]loop{}, traced.loops[:]...), coreLoops[:]...)
	for _, lp := range all {
		for _, s := range lp.spans {
			sum[s.layer] += float64(s.dur)
			count[s.layer]++
			switch s.layer {
			case lDecode, lHandler, lDispatch:
				events[s.layer] += w.frames[s.frame].events()
			case lAppend, lIngest:
				events[s.layer] += len(sh[s.frame][s.worker])
			case lRefresh:
				refresh = append(refresh, s)
			}
		}
	}
	meanOf := func(l layer) float64 { return ratio(sum[l], float64(count[l])) }

	// Queue wait: a request's wall in the fleet pass minus the ingest time
	// of its slowest share in the core pass.
	reqWall := make([]int64, len(w.frames))
	for _, lp := range traced.loops {
		for _, s := range lp.spans {
			reqWall[s.frame] += s.dur
		}
	}
	qwait := make([]float64, len(w.frames))
	for i := range w.frames {
		qwait[i] = float64(reqWall[i]-int64(max(ingest[i][0], ingest[i][1]))) / 1e6
	}
	q99, ok := tailPercentile(len(qwait), 0.99)
	if !ok {
		return nil, fmt.Errorf("%d requests: too few for a queue-wait percentile", len(qwait))
	}

	// The machine driver must reproduce the supervisor on the same clean
	// shares, or its breakdown does not describe the serving path. The
	// median share ratio is the check; a collection pause landing in one
	// pass and not the other moves only a few shares.
	var perShare []float64
	var drv, sup float64
	for i := range w.frames {
		if w.frames[i].kind != cleanFrame {
			continue
		}
		for wk := 0; wk < workers; wk++ {
			if ingest[i][wk] > 0 {
				perShare = append(perShare, float64(share[i][wk])/float64(ingest[i][wk]))
				drv += float64(share[i][wk])
				sup += float64(ingest[i][wk])
			}
		}
	}
	agreement := median(perShare)
	if agreement < 1/maxDisagreement || agreement > maxDisagreement {
		return nil, fmt.Errorf("machine driver took %.3f× the supervisor's wall on the median clean share", agreement)
	}

	// Coverage: the share of each pass's wall inside timed calls.
	coverage := 1.0
	passCover := func(loops []loop, ls ...layer) {
		var in, wall float64
		for _, lp := range loops {
			i, wl := lp.covered(ls...)
			in, wall = in+i, wall+wl
		}
		coverage = min(coverage, ratio(in, wall))
	}
	passCover(traced.loops[:], lHandler, lDecode, lDispatch)
	passCover(coreLoops[:], lIngest, lAppend, lPoll, lTake, lExtState, lRefresh, lStep)
	if coverage < minCoverage {
		return nil, fmt.Errorf("timed calls cover %.3f of the traced wall, below %.2f", coverage, minCoverage)
	}

	// Standby refresh over the first and last tenth of the frames.
	var first, last []float64
	for _, s := range refresh {
		switch {
		case int(s.frame) < len(w.frames)/10:
			first = append(first, float64(s.dur))
		case int(s.frame) >= len(w.frames)-len(w.frames)/10:
			last = append(last, float64(s.dur))
		}
	}

	c := traced.snap.Counters
	done := float64(c["fleet.completed"])
	machWall := sum[lShare] - sum[lExtState]
	rt0, rt1 := traced.rt0, traced.rt1
	busy := (rt1.total - rt0.total) - (rt1.idle - rt0.idle)

	r := &result{attempted: 2 * len(w.frames)}
	r.set("fleet.handler_us", meanOf(lHandler)/1e3)
	r.set("fleet.decode_us_per_kev", ratio(sum[lDecode]/1e3, float64(events[lDecode])/1e3))
	r.set("fleet.queue_wait_ms_p50", quantile(qwait, 0.5))
	r.set("fleet.queue_wait_ms_p99", quantile(qwait, q99))
	r.set("fleet.blocked", float64(c["fleet.blocked"]))
	r.set("replay.append_us_per_kev", ratio(sum[lAppend]/1e3, float64(events[lAppend])/1e3))
	r.set("core.ingest_us_per_ev", ratio(sum[lIngest]/1e3, float64(events[lIngest])))
	r.set("core.step_us_per_ev", ratio(sum[lStep]/1e3, float64(events[lAppend])))
	r.set("heap.mallocs_per_ev", ratio(float64(c["heap.mallocs"]), done))
	r.set("checkpoint.take_us", meanOf(lTake)/1e3)
	r.set("checkpoint.allocext_state_us", meanOf(lExtState)/1e3)
	r.set("checkpoint.vmem_us", (meanOf(lTake)-meanOf(lExtState))/1e3)
	r.set("checkpoint.share", ratio(sum[lTake], machWall))
	r.set("ckpt.cow_pages_per_take", ratio(float64(c["ckpt.cow_pages"]), float64(c["ckpt.taken"])))
	r.set("checkpoint.taken_per_kev", ratio(float64(c["ckpt.taken"]), done/1e3))
	r.set("spec.standby_refresh_us", meanOf(lRefresh)/1e3)
	r.set("spec.standby_refresh_us_first", mean(first)/1e3)
	r.set("spec.standby_refresh_us_last", mean(last)/1e3)
	r.set("spec.refresh_share", ratio(sum[lRefresh], machWall))
	rc := traced.recovery.Counters
	r.set("spec.won_ratio", ratio(float64(rc["spec.won"]), float64(rc["spec.launched"])))
	r.set("core.recovery_ms", traced.recovery.Histograms["core.recovery_wall_us"].Mean/1e3)
	r.set("diag.rollbacks_per_recovery", ratio(float64(rc["diag.rollbacks"]), float64(rc["core.recoveries"]+rc["core.skipped_events"])))
	r.set("runtime.gc_cpu_share", ratio(rt1.gc-rt0.gc, busy))
	r.set("runtime.alloc_bytes_per_ev", ratio(rt1.allocs-rt0.allocs, float64(w.events)))
	r.set("layers.coverage", coverage)
	r.set("tracing.overhead", ratio(drv, sup)-1)
	fmt.Fprintf(log, "%s traced: %d events, %d requests; fleet pass %.2fs, core pass %v; machine driver against supervisor on clean shares: %.3f on the median share, %.3f in total; %d queue-wait samples (p%g); %d standby refreshes\n",
		w.spec.name, w.events, len(w.frames), traced.wall.Seconds(), max(coreLoops[0].wall, coreLoops[1].wall).Round(time.Millisecond),
		agreement, ratio(drv, sup), len(qwait), q99*100, count[lRefresh])
	if spansPath != "" {
		if err := writeSpans(spansPath, all...); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// minCoverage is the least share of each traced pass's wall its timed
// calls must cover for the breakdown to describe the run.
const minCoverage = 0.9

// maxDisagreement bounds the machine driver's wall against the
// supervisor's on the same clean shares, either way.
const maxDisagreement = 1.2
