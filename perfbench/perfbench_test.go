package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"firstaid/internal/fleet"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		limit float64
		want  float64
		ok    bool
	}{
		{19, 0.99, 0, false},
		{20, 0.99, 0.5, true},
		{99, 0.99, 0.5, true},
		{100, 0.99, 0.9, true},
		{999, 0.99, 0.9, true},
		{1000, 0.99, 0.99, true},
		{1000, 0.5, 0.5, true},
		{9999, 0.999, 0.99, true},
		{10000, 0.999, 0.999, true},
		{10000, 0.99, 0.99, true},
	} {
		got, ok := tailPercentile(tc.n, tc.limit)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d, %g) = %g, %v; want %g, %v", tc.n, tc.limit, got, ok, tc.want, tc.ok)
		}
		if ok {
			if beyond := tc.n - 1 - rankOf(tc.n, got); beyond < minBeyond {
				t.Errorf("n=%d: p%g leaves %d samples beyond it", tc.n, got*100, beyond)
			}
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	// Of five values, the second best in either direction.
	if got := betterQuartile([]float64{9, 1, 5, 2, 7}, false); got != 2 {
		t.Errorf("lower-is-better quartile = %g, want 2", got)
	}
	if got := betterQuartile([]float64{9, 1, 5, 2, 7}, true); got != 7 {
		t.Errorf("higher-is-better quartile = %g, want 7", got)
	}
}

// smallWorkloads generates each workload at a size a unit test can afford.
func smallWorkloads(t *testing.T, seed int64) []*workload {
	t.Helper()
	var out []*workload
	for i := range workloadSpecs {
		spec := &workloadSpecs[i]
		events := 4000
		if spec.batch == 0 {
			events = 600
		}
		w, err := generate(spec, seed, events)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		out = append(out, w)
	}
	return out
}

func TestFramesRoundTripThroughDecodeBatch(t *testing.T) {
	for _, w := range smallWorkloads(t, 7) {
		for i, fr := range append(w.frames, w.probes...) {
			if fr.json(w.spec) {
				var rq fleet.Request
				if err := json.Unmarshal(fr.body, &rq); err != nil || rq != fr.reqs[0] {
					t.Fatalf("%s frame %d: JSON body decodes to %+v (%v), want %+v", w.spec.name, i, rq, err, fr.reqs[0])
				}
				continue
			}
			items, err := fleet.DecodeBatch(fr.body, nil)
			if err != nil {
				t.Fatalf("%s frame %d: %v", w.spec.name, i, err)
			}
			if len(items) != len(fr.reqs) {
				t.Fatalf("%s frame %d: %d items decoded, %d sent", w.spec.name, i, len(items), len(fr.reqs))
			}
			for j, it := range items {
				got := fleet.Request{Kind: string(it.Kind), Data: string(it.Data), N: it.N, Src: string(it.Src)}
				if got != fr.reqs[j] {
					t.Fatalf("%s frame %d item %d: decoded %+v, sent %+v", w.spec.name, i, j, got, fr.reqs[j])
				}
			}
		}
	}
}

func TestSameSeedSameFrames(t *testing.T) {
	a, b, c := smallWorkloads(t, 42), smallWorkloads(t, 42), smallWorkloads(t, 43)
	for k := range a {
		wire := func(w *workload) []byte {
			var buf bytes.Buffer
			for _, fr := range w.frames {
				buf.WriteByte(byte(fr.conn))
				buf.Write(fr.body)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(wire(a[k]), wire(b[k])) {
			t.Errorf("%s: the same seed gave different frames", a[k].spec.name)
		}
		if bytes.Equal(wire(a[k]), wire(c[k])) {
			t.Errorf("%s: seeds 42 and 43 gave identical frames", a[k].spec.name)
		}
	}
}

func TestWorkloadShape(t *testing.T) {
	for _, w := range smallWorkloads(t, 3) {
		var hostile, triggers, events int
		perConnWorkers := [conns]map[int]bool{{}, {}}
		for _, fr := range w.frames {
			events += fr.events()
			switch fr.kind {
			case hostileFrame:
				hostile += fr.events()
			case triggerFrame:
				triggers++
			}
			for _, rq := range fr.reqs {
				perConnWorkers[fr.conn][workerOf(rq.Src)] = true
			}
		}
		if events != w.events {
			t.Errorf("%s: frames hold %d events, workload says %d", w.spec.name, events, w.events)
		}
		if want := w.spec.hostile * float64(events); float64(hostile) < want-1 || float64(hostile) > want+1 {
			t.Errorf("%s: %d hostile events of %d, want a %g share", w.spec.name, hostile, events, w.spec.hostile)
		}
		if w.spec.trigger != (triggers == 1) {
			t.Errorf("%s: %d bug triggers", w.spec.name, triggers)
		}
		if w.spec.batch > 0 {
			for c, ws := range perConnWorkers {
				if len(ws) != workers {
					t.Errorf("%s: connection %d reaches workers %v, want all %d", w.spec.name, c, ws, workers)
				}
			}
		}
		if hostile == 0 && len(w.probes) != probes {
			t.Errorf("%s: %d recovery probes, want %d", w.spec.name, len(w.probes), probes)
		}
	}
}

// TestTracedRunSmall runs the in-process passes, with their gates and
// validity checks, on every workload at unit-test size.
func TestTracedRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("serves a few thousand events per workload")
	}
	for _, w := range smallWorkloads(t, 11) {
		r, err := tracedRun(context.Background(), w, "", io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.spec.name, err)
		}
		if err := r.complete(perLayer); err != nil {
			t.Errorf("%s: %v", w.spec.name, err)
		}
	}
}

func TestStickySources(t *testing.T) {
	for wk := 0; wk < workers; wk++ {
		for _, src := range stickySources("src", wk, 4) {
			if workerOf(src) != wk {
				t.Errorf("%s hashes to worker %d, want %d", src, workerOf(src), wk)
			}
		}
	}
}

func TestCheckRejectsWrongOutcomes(t *testing.T) {
	src := stickySources("src", 1, 1)[0]
	fr := &frame{kind: cleanFrame, reqs: []fleet.Request{{Kind: "search", Src: src}, {Kind: "search", Src: src}}}
	ok := reply{events: 2, perWorker: [workers]int{0, 2}}
	if err := fr.check(ok); err != nil {
		t.Fatalf("a correct reply was rejected: %v", err)
	}
	for name, bad := range map[string]reply{
		"lost event":   {events: 1, perWorker: [workers]int{0, 1}},
		"wrong worker": {events: 2, perWorker: [workers]int{2, 0}},
		"failure":      {events: 2, failures: 1, perWorker: [workers]int{0, 2}},
		"skip":         {events: 2, skipped: 1, perWorker: [workers]int{0, 2}},
	} {
		if fr.check(bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	h := &frame{kind: hostileFrame, reqs: []fleet.Request{{Kind: "bench-unknown-0", Src: src}}}
	if err := h.check(reply{events: 1, failures: 2, skipped: 1, perWorker: [workers]int{0, 1}}); err != nil {
		t.Errorf("a skipped hostile event was rejected: %v", err)
	}
	if h.check(reply{events: 1, failures: 1, recovered: 1, perWorker: [workers]int{0, 1}}) == nil {
		t.Error("a recovered hostile event was accepted")
	}
}

func TestParseSummary(t *testing.T) {
	out := "firstaid-serve: apache fleet of 2 worker(s) on http://127.0.0.1:4242 (dispatch hash)\n\n" +
		"terminated: shutting down\n" +
		"fleet: 1021 request(s) across 2 worker(s); rerouted 0, blocked 3\n" +
		"core: failures 22, recoveries 1, skipped 21, patches made 1, active patches 1\n"
	got, err := parseSummary(out)
	if err != nil {
		t.Fatal(err)
	}
	want := summary{requests: 1021, workers: 2, blocked: 3, failures: 22, recoveries: 1, skipped: 21, patchesMade: 1, activeNow: 1}
	if got != want {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	if _, err := parseSummary("fleet: 3 request(s) across 2 worker(s); rerouted 0, blocked 0\n"); err == nil {
		t.Error("a summary without its core line was accepted")
	}
	if m := addrLine.FindStringSubmatch(out); m == nil || m[1] != "http://127.0.0.1:4242" {
		t.Errorf("listen address parsed as %v", m)
	}
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
		if !unitName.MatchString(m.unit) {
			t.Errorf("%s: unit %q is malformed", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better is %q", m.name, m.better)
		}
	}
	for _, m := range perLayer {
		if m.moves == "" {
			continue
		}
		found := false
		for _, e := range endToEnd {
			found = found || e.name == m.moves
		}
		if !found {
			t.Errorf("%s predicts a move in %q, which is no end-to-end metric", m.name, m.moves)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps the repository's BENCHMARK.json and
// the metrics and workloads this program emits in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var specs []string
	for _, s := range workloadSpecs {
		specs = append(specs, s.name)
	}
	if !reflect.DeepEqual(names, specs) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, specs)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d emitted", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program emits %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var setup float64
	for _, m := range b.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound != nil && *m.Bound > setup {
			t.Errorf("%s: bound %g exceeds setup_s's %g, which must be the largest", m.Name, *m.Bound, setup)
		}
	}
	for _, m := range b.PerLayer {
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}
