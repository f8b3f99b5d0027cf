package main

import (
	"fmt"

	"firstaid/internal/fleet"
)

// reply is one request's outcome as the server reported it.
type reply struct {
	events, failures, recovered, skipped int
	perWorker                            [workers]int
}

func batchReply(br fleet.BatchResult) (reply, error) {
	r := reply{events: br.Events, failures: br.Failures, recovered: br.Recovered, skipped: br.Skipped}
	for _, wb := range br.Workers {
		if wb.Worker < 0 || wb.Worker >= workers {
			return r, fmt.Errorf("reply names worker %d of %d", wb.Worker, workers)
		}
		r.perWorker[wb.Worker] += wb.Events
	}
	return r, nil
}

func eventReply(res fleet.Result) (reply, error) {
	r := reply{events: 1}
	if res.Worker < 0 || res.Worker >= workers {
		return r, fmt.Errorf("reply names worker %d of %d", res.Worker, workers)
	}
	r.perWorker[res.Worker] = 1
	if res.Failed {
		r.failures = 1
	}
	if res.Recovered {
		r.recovered = 1
	}
	if res.Skipped {
		r.skipped = 1
	}
	return r, nil
}

// check verifies one reply against what its frame must get: every event
// acknowledged on its sticky worker, clean events untouched, a hostile or
// probe event skipped, the bug trigger recovered.
func (fr *frame) check(r reply) error {
	if r.events != fr.events() {
		return fmt.Errorf("%d of %d events acknowledged", r.events, fr.events())
	}
	var want [workers]int
	for _, rq := range fr.reqs {
		want[workerOf(rq.Src)]++
	}
	if r.perWorker != want {
		return fmt.Errorf("events per worker %v, sticky dispatch gives %v", r.perWorker, want)
	}
	switch fr.kind {
	case cleanFrame:
		if r.failures != 0 || r.recovered != 0 || r.skipped != 0 {
			return fmt.Errorf("clean request: %d failures, %d recovered, %d skipped", r.failures, r.recovered, r.skipped)
		}
	case hostileFrame, probeFrame:
		if r.failures == 0 || r.skipped != 1 || r.recovered != 0 {
			return fmt.Errorf("unknown-kind event: %d failures, %d recovered, %d skipped; want it skipped", r.failures, r.recovered, r.skipped)
		}
	case triggerFrame:
		if r.failures == 0 || r.recovered != 1 || r.skipped != 0 {
			return fmt.Errorf("bug trigger: %d failures, %d recovered, %d skipped; want it recovered", r.failures, r.recovered, r.skipped)
		}
	}
	return nil
}

// tally is what the server did over a set of requests.
type tally struct {
	events, failures, recoveries, skipped, patches, active int
}

func (t *tally) add(r reply) {
	t.events += r.events
	t.failures += r.failures
	t.recoveries += r.recovered
	t.skipped += r.skipped
}

// expect checks the server's own counts for the measured window against
// the workload: every event acknowledged; on clean traffic nothing fails
// or is skipped; every hostile event skipped and no patch made; the one
// bug trigger failing once, recovered once, and leaving an active patch.
func (w *workload) expect(server tally) error {
	var hostile, triggers int
	for i := range w.frames {
		switch w.frames[i].kind {
		case hostileFrame:
			hostile++
		case triggerFrame:
			triggers++
		}
	}
	switch {
	case server.events != w.events:
		return fmt.Errorf("server completed %d of %d events", server.events, w.events)
	case server.skipped != hostile:
		return fmt.Errorf("server skipped %d events, %d hostile sent", server.skipped, hostile)
	case server.recoveries != triggers:
		return fmt.Errorf("server recovered %d times, %d bug triggers sent", server.recoveries, triggers)
	case hostile == 0 && server.failures != triggers:
		return fmt.Errorf("server saw %d failures, %d bug triggers sent", server.failures, triggers)
	case hostile > 0 && server.failures < hostile:
		return fmt.Errorf("server saw %d failures for %d hostile events", server.failures, hostile)
	case triggers == 0 && server.patches != 0:
		return fmt.Errorf("server made %d patches without a bug trigger", server.patches)
	case triggers > 0 && server.active == 0:
		return fmt.Errorf("no active patch after %d bug triggers", triggers)
	}
	return nil
}

// agree checks the server's SIGTERM summary against the client's counts.
func agree(s summary, client tally) error {
	switch {
	case s.workers != workers:
		return fmt.Errorf("summary: %d workers, want %d", s.workers, workers)
	case s.requests != client.events:
		return fmt.Errorf("summary: %d events completed, client acknowledged %d", s.requests, client.events)
	case s.failures != client.failures:
		return fmt.Errorf("summary: %d failures, client saw %d", s.failures, client.failures)
	case s.recoveries != client.recoveries:
		return fmt.Errorf("summary: %d recoveries, client saw %d", s.recoveries, client.recoveries)
	case s.skipped != client.skipped:
		return fmt.Errorf("summary: %d skipped, client saw %d", s.skipped, client.skipped)
	case s.patchesMade != client.patches:
		return fmt.Errorf("summary: %d patches made, /metrics said %d", s.patchesMade, client.patches)
	case s.activeNow != client.active:
		return fmt.Errorf("summary: %d active patches, /patches listed %d", s.activeNow, client.active)
	}
	return nil
}
