package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"firstaid/internal/apps"
	"firstaid/internal/fleet"
	"firstaid/internal/replay"
)

// workers is the fleet size the benchmark serves with (-workers 2).
const workers = 2

// conns is the number of client connections, and of clients.
const conns = 2

// probes is how many failing requests a workload without hostile traffic
// sends after its measured window to time recovery: 21 leaves ten samples
// above the median.
const probes = 21

// workloadSpec describes one traffic mix.
type workloadSpec struct {
	name string
	app  string
	// batch is the number of clean events per FAB frame on POST
	// /events/batch; 0 sends one JSON event per POST /events.
	batch int
	// rate is events per second of --seconds: it fixes the event count of
	// each repetition (seconds / reps × rate), which runs must share to be
	// comparable, because the per-event cost grows with the events a
	// worker has served.
	rate float64
	// hostile is the share of all events that come from the hostile
	// source, one unknown-kind event per request.
	hostile float64
	// trigger: the first client carries the app's real bug trigger once.
	trigger bool
}

var workloadSpecs = []workloadSpec{
	{name: "apache-batch-clean", app: "apache", batch: 32, rate: 16000},
	{name: "apache-batch-hostile", app: "apache", batch: 32, rate: 9000, hostile: 0.01},
	{name: "squid-events-json", app: "squid", rate: 7000, trigger: true},
}

func findSpec(name string) (*workloadSpec, error) {
	for i := range workloadSpecs {
		if workloadSpecs[i].name == name {
			return &workloadSpecs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// frameKind classifies a request by what the server should do with it.
type frameKind uint8

const (
	cleanFrame   frameKind = iota // every event succeeds
	hostileFrame                  // one unknown-kind event: fails, ends skipped
	triggerFrame                  // the app's real bug: fails, is recovered
	probeFrame                    // a post-window unknown-kind event
)

// frame is one HTTP request of a workload.
type frame struct {
	conn int
	kind frameKind
	reqs []fleet.Request
	body []byte
}

func (fr *frame) events() int { return len(fr.reqs) }

// json reports whether the frame goes to POST /events.
func (fr *frame) json(spec *workloadSpec) bool {
	return spec.batch == 0 && fr.kind != probeFrame
}

// workload is the generated input of one run.
type workload struct {
	spec   *workloadSpec
	frames []frame // generation order; each connection keeps its own order
	probes []frame // sent after the measured window
	events int
}

// generate builds a workload from the seed: the interleaving of the
// sources, the hostile positions and the trigger offset all come from it,
// so the same seed gives byte-identical frames.
func generate(spec *workloadSpec, seed int64, events int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{spec: spec}
	var perConn [conns][]frame
	var err error
	if spec.batch > 0 {
		perConn, err = batchFrames(spec, rng, events)
	} else {
		perConn, err = eventFrames(spec, rng, events)
	}
	if err != nil {
		return nil, err
	}
	for c := range perConn {
		for i := range perConn[c] {
			fr := &perConn[c][i]
			fr.conn = c
			encode(spec, fr)
		}
	}
	// The traced run replays frames in one order: the connections take
	// turns, as two closed-loop clients of equal speed would.
	for i := 0; i < len(perConn[0]) || i < len(perConn[1]); i++ {
		for c := range perConn {
			if i < len(perConn[c]) {
				w.frames = append(w.frames, perConn[c][i])
				w.events += perConn[c][i].events()
			}
		}
	}
	if spec.hostile == 0 {
		src := stickySources("probe", 0, 1)[0]
		for i := 0; i < probes; i++ {
			fr := frame{kind: probeFrame, reqs: []fleet.Request{{Kind: "bench-probe", Data: fmt.Sprintf("probe=%d", i), Src: src}}}
			encode(spec, &fr)
			w.probes = append(w.probes, fr)
		}
	}
	return w, nil
}

// batchFrames builds the FAB workloads: two clients, each interleaving
// four sticky sources (two per worker, so every frame fans out to both),
// plus the hostile source's single-event frames. The hostile source keeps
// to the second connection, so its events arrive in order, evenly spaced
// from a seed-chosen phase: hostile events that land close together make
// one recovery re-execute the other's failure, and a stall that depends on
// such chance pairings would make the tail a property of the seed.
func batchFrames(spec *workloadSpec, rng *rand.Rand, events int) ([conns][]frame, error) {
	var out [conns][]frame
	hostile := int(math.Round(float64(events) * spec.hostile))
	perSrc := (events - hostile) / (2 * conns * workers)
	if perSrc < spec.batch {
		return out, fmt.Errorf("%d events is too few for %s", events, spec.name)
	}
	var byWorker [workers][]string
	for wk := range byWorker {
		byWorker[wk] = stickySources("src", wk, 2*conns)
	}
	for c := range out {
		var streams [][]fleet.Request
		for wk := range byWorker {
			for _, src := range byWorker[wk][2*c : 2*c+2] {
				log, err := appWorkload(spec.app, perSrc, nil)
				if err != nil {
					return out, err
				}
				streams = append(streams, requests(log, src))
			}
		}
		mixed := interleave(rng, streams)
		for lo := 0; lo < len(mixed); lo += spec.batch {
			hi := min(lo+spec.batch, len(mixed))
			out[c] = append(out[c], frame{kind: cleanFrame, reqs: mixed[lo:hi]})
		}
	}
	if hostile == 0 {
		return out, nil
	}
	hsrc := stickySources("hostile", 0, 1)[0]
	clean := out[conns-1]
	var mixed []frame
	phase, next := rng.Float64(), 0
	for j := 0; j < hostile; j++ {
		pos := int((float64(j) + phase) * float64(len(clean)) / float64(hostile))
		mixed = append(mixed, clean[next:pos]...)
		next = pos
		mixed = append(mixed, frame{kind: hostileFrame, reqs: []fleet.Request{{
			Kind: fmt.Sprintf("bench-unknown-%d", rng.Intn(8)),
			Data: fmt.Sprintf("uid=evil%d", rng.Intn(1000)),
			Src:  hsrc,
		}}})
	}
	out[conns-1] = append(mixed, clean[next:]...)
	return out, nil
}

// eventFrames builds the per-event JSON workload: two clients, one sticky
// source each, one per worker; the first carries the app's bug trigger at
// a seed-chosen offset.
func eventFrames(spec *workloadSpec, rng *rand.Rand, events int) ([conns][]frame, error) {
	var out [conns][]frame
	per := events / conns
	for c := range out {
		src := stickySources("client", c, 1)[0]
		clean, err := appWorkload(spec.app, per, nil)
		if err != nil {
			return out, err
		}
		log, trig := clean, -1
		if spec.trigger && c == 0 {
			at := per/10 + rng.Intn(per*2/5)
			if log, err = appWorkload(spec.app, per, []int{at}); err != nil {
				return out, err
			}
			trig = firstDifference(clean, log)
		}
		for i, rq := range requests(log, src) {
			kind := cleanFrame
			if i == trig {
				kind = triggerFrame
			}
			out[c] = append(out[c], frame{kind: kind, reqs: []fleet.Request{rq}})
		}
	}
	return out, nil
}

// encode fills the frame's wire body.
func encode(spec *workloadSpec, fr *frame) {
	if fr.json(spec) {
		fr.body, _ = json.Marshal(fr.reqs[0]) // a Request of strings always marshals
		return
	}
	fr.body = fleet.AppendRequests(nil, fr.reqs)
}

func appWorkload(name string, n int, triggers []int) (*replay.Log, error) {
	prog, err := apps.New(name)
	if err != nil {
		return nil, err
	}
	return prog.Workload(n, triggers), nil
}

// requests turns an app's event log into one source's requests.
func requests(log *replay.Log, src string) []fleet.Request {
	out := make([]fleet.Request, 0, log.Len())
	for i := log.Base(); i < log.Len(); i++ {
		ev := log.At(i)
		out = append(out, fleet.Request{Kind: ev.Kind, Data: ev.Data, N: ev.N, Src: src})
	}
	return out
}

// firstDifference returns the first index at which two logs differ (the
// inserted trigger), or -1.
func firstDifference(a, b *replay.Log) int {
	for i := 0; i < b.Len(); i++ {
		if i >= a.Len() || a.At(i).Kind != b.At(i).Kind || a.At(i).Data != b.At(i).Data {
			return i
		}
	}
	return -1
}

// interleave merges streams into one, keeping each stream's order and
// drawing the next stream with probability proportional to what it has
// left.
func interleave(rng *rand.Rand, streams [][]fleet.Request) []fleet.Request {
	left := 0
	for _, s := range streams {
		left += len(s)
	}
	out := make([]fleet.Request, 0, left)
	pos := make([]int, len(streams))
	for ; left > 0; left-- {
		r := rng.Intn(left)
		for i, s := range streams {
			if rem := len(s) - pos[i]; r < rem {
				out = append(out, s[pos[i]])
				pos[i]++
				break
			} else {
				r -= rem
			}
		}
	}
	return out
}

// workerOf is the fleet's sticky dispatch: FNV-1a of the source modulo the
// worker count. The benchmark checks every reply against it.
func workerOf(src string) int {
	h := uint32(2166136261)
	for i := 0; i < len(src); i++ {
		h ^= uint32(src[i])
		h *= 16777619
	}
	return int(h % workers)
}

// stickySources returns the first n names prefix-0, prefix-1, … that the
// fleet dispatches to worker wk.
func stickySources(prefix string, wk, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		if name := fmt.Sprintf("%s-%d", prefix, i); workerOf(name) == wk {
			out = append(out, name)
		}
	}
	return out
}

// shares splits every frame's events by worker, as the fleet does,
// indexed [frame][worker].
func (w *workload) shares() [][workers][]replay.Item {
	out := make([][workers][]replay.Item, len(w.frames))
	for i := range w.frames {
		for _, rq := range w.frames[i].reqs {
			wk := workerOf(rq.Src)
			out[i][wk] = append(out[i][wk], replay.Item{Kind: []byte(rq.Kind), Data: []byte(rq.Data), N: rq.N})
		}
	}
	return out
}
