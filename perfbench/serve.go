package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"firstaid/internal/fleet"
	"firstaid/internal/patch"
	"firstaid/internal/telemetry"
)

// reps is how many times a run serves its workload, each time on a fresh
// server. Every end-to-end metric but setup_s is its better quartile over
// the repetitions (the second best of seven): a neighbour on a shared host
// only ever makes a repetition slower, in bursts of CPU steal that land in
// the latency tail directly, so the repetitions it hit least are the ones
// that measure the program. A slower program is slower in all of them.
const reps = 7

// bareStarts is how many extra times a run starts and stops the server
// only to time set-up, so that setup_s, a few milliseconds of exec and
// start-up jitter, is a median of eleven.
const bareStarts = 4

// sent is one request as the client saw it.
type sent struct {
	start, end time.Time
	reply      reply
	err        error
}

// latency is client-observed, from send to reply.
func (s *sent) latency() time.Duration { return s.end.Sub(s.start) }

// serveRun measures the end-to-end metrics: the server runs as its own
// process and the workload goes over loopback HTTP, reps times.
func serveRun(ctx context.Context, w *workload, bin string, log io.Writer) (*result, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	var setups []float64
	for i := 0; i < bareStarts; i++ {
		srv, took, err := startServer(ctx, bin, w.spec.app, client)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if _, err := srv.stop(); err != nil {
			return nil, err
		}
		client.CloseIdleConnections()
	}
	per := map[string][]float64{}
	var clean []float64
	for rep := 0; rep < reps; rep++ {
		m, lat, took, err := serveOnce(ctx, w, bin, client, log)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", rep+1, err)
		}
		client.CloseIdleConnections()
		setups = append(setups, took.Seconds())
		for k, v := range m {
			per[k] = append(per[k], v)
		}
		clean = append(clean, lat...)
	}
	r := &result{attempted: reps * (len(w.frames) + len(w.probes))}
	for _, m := range endToEnd {
		if vs, ok := per[m.name]; ok {
			r.set(m.name, betterQuartile(vs, m.better == "higher"))
		}
	}
	r.set("setup_s", median(setups))
	fmt.Fprintf(log, "%s: latency p99 %.3fms at the better quartile of the repetitions, %.3fms at their median, %.3fms over all %d clean requests; set-up samples %v\n",
		w.spec.name, r.metrics["latency_p99_ms"].Value, median(per["latency_p99_ms"]), quantile(clean, 0.99), len(clean), setups)
	return r, nil
}

// serveOnce starts a server, serves the workload, checks every reply and
// the server's counts, stops it and returns the repetition's metrics, its
// clean-request latencies and the server's set-up time.
func serveOnce(ctx context.Context, w *workload, bin string, client *http.Client, log io.Writer) (map[string]float64, []float64, time.Duration, error) {
	srv, took, err := startServer(ctx, bin, w.spec.app, client)
	if err != nil {
		return nil, nil, 0, err
	}
	defer srv.stop() // every exit path; a no-op after the orderly stop
	m, clean, err := measure(ctx, w, srv, client, log)
	return m, clean, took, err
}

// measure serves the workload once on a running server and returns its
// metrics and clean-request latencies.
func measure(ctx context.Context, w *workload, srv *server, client *http.Client, log io.Writer) (map[string]float64, []float64, error) {
	// Open both connections before the clock starts.
	var warm sync.WaitGroup
	for c := 0; c < conns; c++ {
		warm.Add(1)
		go func() {
			defer warm.Done()
			var h fleet.Health
			_ = getJSON(ctx, client, srv.url+"/healthz", &h) // a failure shows in the run itself
		}()
	}
	warm.Wait()

	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, nil, err
	}
	steal0 := hostSteal()
	out, start, end := drive(ctx, client, srv.url, w.spec, w.frames)
	steal := hostSteal() - steal0
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, nil, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, nil, err
	}

	var client0 tally
	var clean, recovery []float64
	for i := range out {
		fr := &w.frames[i]
		if out[i].err != nil {
			return nil, nil, fmt.Errorf("request %d: %w", i, out[i].err)
		}
		if err := fr.check(out[i].reply); err != nil {
			return nil, nil, fmt.Errorf("request %d: %w", i, err)
		}
		client0.add(out[i].reply)
		ms := float64(out[i].latency()) / 1e6
		if fr.kind == cleanFrame {
			clean = append(clean, ms)
		} else {
			recovery = append(recovery, ms)
		}
	}

	var snap telemetry.Snapshot
	if err := getJSON(ctx, client, srv.url+"/metrics", &snap); err != nil {
		return nil, nil, err
	}
	active, err := activePatches(ctx, client, srv.url)
	if err != nil {
		return nil, nil, err
	}
	c := snap.Counters
	server := tally{
		events:     int(c["fleet.completed"]),
		failures:   int(c["core.failures"]),
		recoveries: int(c["core.recoveries"]),
		skipped:    int(c["core.skipped_events"]),
		patches:    int(c["patch.generated"]),
		active:     active,
	}
	if err := w.expect(server); err != nil {
		return nil, nil, err
	}

	// Workloads without hostile traffic time recovery after the window.
	if len(w.probes) > 0 {
		pout, _, _ := drive(ctx, client, srv.url, w.spec, w.probes)
		for i := range pout {
			if pout[i].err != nil {
				return nil, nil, fmt.Errorf("probe %d: %w", i, pout[i].err)
			}
			if err := w.probes[i].check(pout[i].reply); err != nil {
				return nil, nil, fmt.Errorf("probe %d: %w", i, err)
			}
			client0.add(pout[i].reply)
			recovery = append(recovery, float64(pout[i].latency())/1e6)
		}
	}
	client0.patches, client0.active = server.patches, server.active

	stdout, err := srv.stop()
	if err != nil {
		return nil, nil, err
	}
	sum, err := parseSummary(stdout)
	if err != nil {
		return nil, nil, err
	}
	if err := agree(sum, client0); err != nil {
		return nil, nil, err
	}

	if q, _ := tailPercentile(len(clean), 0.99); q != 0.99 {
		return nil, nil, fmt.Errorf("%d clean requests: p99 needs at least 1000", len(clean))
	}
	if q, _ := tailPercentile(len(recovery), 0.5); q != 0.5 {
		return nil, nil, fmt.Errorf("%d failing requests: the median needs at least 21", len(recovery))
	}
	wall := end.Sub(start).Seconds()
	m := map[string]float64{
		"throughput_ev_s": float64(w.events) / wall,
		"latency_p50_ms":  quantile(clean, 0.5),
		"latency_p99_ms":  quantile(clean, 0.99),
		"recovery_p50_ms": quantile(recovery, 0.5),
		"cpu_us_per_ev":   float64(cpu1-cpu0) / 1e3 / float64(w.events),
		"peak_rss_mb":     rss,
	}
	fmt.Fprintf(log, "%s: %d events in %d requests over %.2fs (%.0f ev/s), %.1fus CPU/ev, peak RSS %.1fMiB; latency p50 %.3fms p90 %.3fms p99 %.3fms max %.3fms over %d clean requests; recovery p50 %.3fms over %d failing requests; host steal %v; server failures %d, recoveries %d, skipped %d, patches %d\n",
		w.spec.name, w.events, len(w.frames), wall, m["throughput_ev_s"], m["cpu_us_per_ev"], rss,
		m["latency_p50_ms"], quantile(clean, 0.9), m["latency_p99_ms"], quantile(clean, 1), len(clean),
		m["recovery_p50_ms"], len(recovery), steal,
		sum.failures, sum.recoveries, sum.skipped, sum.patchesMade)
	return m, clean, nil
}

// drive sends frames over at most two connections: each connection sends
// its own frames in order, each as soon as the previous reply is in. It
// returns each frame's outcome and the window from the first send to the
// last reply.
func drive(ctx context.Context, client *http.Client, base string, spec *workloadSpec, frames []frame) ([]sent, time.Time, time.Time) {
	ctx, cancel := context.WithCancel(ctx) // one failed request stops both connections
	defer cancel()
	out := make([]sent, len(frames))
	origin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range frames {
				fr := &frames[i]
				if fr.conn != c {
					continue
				}
				s := &out[i]
				s.start = time.Now()
				s.reply, s.err = post(ctx, client, base, spec, fr)
				s.end = time.Now()
				if s.err != nil {
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	end := origin
	for i := range out {
		if out[i].end.After(end) {
			end = out[i].end
		}
	}
	return out, origin, end
}

// post sends one frame and decodes the reply. Transport failures and
// non-200 statuses are errors: any one fails the run.
func post(ctx context.Context, client *http.Client, base string, spec *workloadSpec, fr *frame) (reply, error) {
	path, ctype := "/events/batch", "application/octet-stream"
	if fr.json(spec) {
		path, ctype = "/events", "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(fr.body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return decodeReply(body, fr.json(spec))
}

func decodeReply(body []byte, event bool) (reply, error) {
	if event {
		var res fleet.Result
		if err := json.Unmarshal(body, &res); err != nil {
			return reply{}, err
		}
		return eventReply(res)
	}
	var br fleet.BatchResult
	if err := json.Unmarshal(body, &br); err != nil {
		return reply{}, err
	}
	return batchReply(br)
}

func activePatches(ctx context.Context, client *http.Client, base string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/patches", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, errors.New("GET /patches: " + resp.Status)
	}
	pool, err := patch.Load(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("GET /patches: %w", err)
	}
	return len(pool.Active()), nil
}
