package core

import (
	"strings"
	"testing"

	"firstaid/internal/app"
	"firstaid/internal/checkpoint"
	"firstaid/internal/diagnosis"
	"firstaid/internal/mmbug"
	"firstaid/internal/proc"
	"firstaid/internal/replay"
	"firstaid/internal/trace"
	"firstaid/internal/vmem"
)

// specBench is the multi-candidate diagnosis workload the speculation
// guard runs on: a buffer overflow whose corruption stays latent for
// dozens of checkpoint intervals. A request buffer and an adjacent state
// block are allocated mid-run; one oversized copy then smashes the state
// block's magic, and the program keeps serving benign requests for ~40
// checkpoints before anything reads the magic and crashes. Every
// checkpoint taken after the smash is a phase-1 ladder candidate that
// re-executes the full window only to fail again — the deep serial
// rollback–re-execute chain speculation collapses to one concurrent
// batch.
type specBench struct{}

const (
	sbMagic  = 0x5AFE5AFE
	sbBufLen = 256

	// Log layout, in events. With app.EventCost per event and the default
	// 200 ms checkpoint interval (~20 events apart), the ~820-event gap
	// puts ~42 checkpoints between the smash and the crash; the ring
	// (Keep below) still retains a pre-setup checkpoint for phase 1 to
	// select, and the ladder budget covers the rejected span.
	sbHistory = 160
	sbGap     = 820
	sbTail    = 40

	sbKeep           = 52
	sbMaxCheckpoints = 48
)

func (specBench) Name() string { return "specbench" }

func (specBench) Bugs() []mmbug.Type { return []mmbug.Type{mmbug.BufferOverflow} }

func (specBench) Init(p *proc.Proc) {
	defer p.Enter("main")()
	defer p.Enter("specbench_init")()
	// Standing heap content so clones carry a realistic footprint.
	idx := p.Malloc(4 << 10)
	p.Memset(idx, 0, 4<<10)
	p.SetRoot(2, idx)
}

func (specBench) Handle(p *proc.Proc, ev replay.Event) {
	defer p.Enter("dispatch")()
	p.Tick(app.EventCost)
	switch ev.Kind {
	case "req":
		// Benign traffic: per-request scratch, allocated and released.
		hdr := func() vmem.Addr {
			defer p.Enter("reqScratch")()
			defer p.Enter("xmalloc")()
			return p.Malloc(uint32(64 + ev.N%96))
		}()
		p.Memset(hdr, 0, 64)
		func() {
			defer p.Enter("reqDone")()
			defer p.Enter("xfree")()
			p.Free(hdr)
		}()
	case "setup":
		// THE VICTIM PAIR: fixed buffer, then the adjacent state block
		// whose magic the overflow will destroy. Allocated inside the
		// replay window so a preventive re-execution can pad them.
		buf := func() vmem.Addr {
			defer p.Enter("parseSetup")()
			defer p.Enter("xmalloc")()
			return p.Malloc(sbBufLen)
		}()
		state := func() vmem.Addr {
			defer p.Enter("createState")()
			defer p.Enter("xmalloc")()
			return p.Malloc(64)
		}()
		p.StoreU32(state, sbMagic)
		p.Memset(state+4, 0, 60)
		p.SetRoot(0, buf)
		p.SetRoot(1, state)
	case "smash":
		// THE BUG: unchecked copy into the fixed buffer; the excess runs
		// over the neighbor's header into the state block's magic. The
		// program does not notice — yet.
		p.At("copy_payload")
		p.StoreString(p.RootAddr(0), ev.Data)
	case "check":
		// The long-delayed read of the smashed magic: the crash site,
		// ~40 checkpoints after the corrupting write.
		p.At("check_state")
		p.Assert(p.LoadU32(p.RootAddr(1)) == sbMagic, "state magic corrupted")
	default:
		p.Assert(false, "specbench: unknown event %q", ev.Kind)
	}
}

// sbLog lays out the deep-ladder input: history, the victim setup, the
// smash, a long benign gap, the crashing check, and a post-recovery tail.
func sbLog() *replay.Log {
	log := replay.NewLog()
	req := func(n int) {
		for i := 0; i < n; i++ {
			log.Append("req", "", log.Len())
		}
	}
	req(sbHistory)
	log.Append("setup", "", 0)
	req(4)
	log.Append("smash", "/exploit/"+strings.Repeat("A", 300), 0)
	req(sbGap)
	log.Append("check", "", 0)
	req(sbTail)
	return log
}

func runSpecBench(b *testing.B, speculate bool) (*Supervisor, Stats, *trace.Tracer) {
	b.Helper()
	trc := trace.New(1 << 19)
	sup := NewSupervisor(specBench{}, sbLog(), Config{
		Speculate: speculate,
		Diagnosis: diagnosis.Config{MaxCheckpoints: sbMaxCheckpoints},
		Machine: MachineConfig{
			Checkpoint: checkpoint.Config{Keep: sbKeep},
			Trace:      trc,
		},
	})
	stats := sup.Run()
	return sup, stats, trc
}

// checkSpecBenchRun asserts one specBench run recovered exactly as
// expected: one failure, a validated buffer-overflow diagnosis pinned to
// the setup allocation site.
func checkSpecBenchRun(b *testing.B, label string, sup *Supervisor, stats Stats) string {
	b.Helper()
	if stats.Failures != 1 || len(sup.Recoveries) != 1 {
		b.Fatalf("%s: failures=%d recoveries=%d, want exactly 1 of each",
			label, stats.Failures, len(sup.Recoveries))
	}
	rec := sup.Recoveries[0]
	if rec.Skipped || !rec.Validated {
		b.Fatalf("%s: recovery skipped=%v validated=%v; log:\n%v",
			label, rec.Skipped, rec.Validated, rec.Result.Log)
	}
	fds := rec.Result.Findings
	if len(fds) != 1 || fds[0].Bug != mmbug.BufferOverflow || len(fds[0].Sites) != 1 {
		b.Fatalf("%s: findings %+v, want exactly one buffer-overflow site", label, fds)
	}
	return sup.M.SiteKey(fds[0].Sites[0]).String()
}

// diagWindow locates the diagnosis span on the parent track: the cycle
// stamps and global record sequence numbers of phase 1's begin and phase
// 2's end.
func diagWindow(b *testing.B, recs []trace.Record) (beginCyc, endCyc, beginSeq, endSeq uint64) {
	b.Helper()
	var haveBegin, haveEnd bool
	for _, r := range recs {
		if r.Worker != 0 {
			continue
		}
		if !haveBegin && r.Kind == trace.KPhaseBegin && r.Arg1 == trace.PhaseDiag1 {
			beginCyc, beginSeq, haveBegin = r.Cycles, r.Seq, true
		}
		if haveBegin && !haveEnd && r.Kind == trace.KPhaseEnd && r.Arg1 == trace.PhaseDiag2 {
			endCyc, endSeq, haveEnd = r.Cycles, r.Seq, true
		}
	}
	if !haveBegin || !haveEnd {
		b.Fatal("diagnosis phase markers missing from the parent trace track")
	}
	return
}

// specCriticalPath scores the speculative run's diagnosis schedule in
// simulated machine cycles: the parent track's own cycle progress (screen,
// convergence check, final verification — consuming a speculative outcome
// advances no parent cycles) plus, per concurrent hypothesis batch, the
// longest clone-track cycle span. Hypotheses launched before phase 1 ends
// are the candidate-ladder batch; the rest are the phase-2 class batch.
// Taking each batch's maximum over every launched clone — including
// losers that were cancelled later — errs on the conservative side.
func specCriticalPath(b *testing.B, recs []trace.Record) uint64 {
	b.Helper()
	beginCyc, endCyc, _, _ := diagWindow(b, recs)
	var diag1End uint64
	for _, r := range recs {
		if r.Worker == 0 && r.Kind == trace.KPhaseEnd && r.Arg1 == trace.PhaseDiag1 {
			diag1End = r.Seq
			break
		}
	}
	if diag1End == 0 {
		b.Fatal("phase-1 end marker missing from the parent trace track")
	}
	type span struct {
		firstSeq uint64
		lo, hi   uint64
	}
	clones := map[uint16]*span{}
	for _, r := range recs {
		if r.Worker&trace.SpecTrackBit == 0 {
			continue
		}
		s := clones[r.Worker]
		if s == nil {
			s = &span{firstSeq: r.Seq, lo: r.Cycles, hi: r.Cycles}
			clones[r.Worker] = s
		}
		if r.Cycles < s.lo {
			s.lo = r.Cycles
		}
		if r.Cycles > s.hi {
			s.hi = r.Cycles
		}
	}
	if len(clones) == 0 {
		b.Fatal("no speculative clone tracks in the trace")
	}
	var ladderMax, classMax uint64
	for _, s := range clones {
		d := s.hi - s.lo
		if s.firstSeq < diag1End {
			if d > ladderMax {
				ladderMax = d
			}
		} else if d > classMax {
			classMax = d
		}
	}
	return (endCyc - beginCyc) + ladderMax + classMax
}

// BenchmarkSpeculativeRecoveryGuard enforces the speculation acceptance
// number: on a multi-candidate diagnosis (a ~40-deep phase-1 checkpoint
// ladder plus the phase-2 class probes), racing the hypotheses on COW
// clones must cut the diagnosis critical path at least 5× below the
// serial rollback–re-execute chain, while producing the identical
// diagnosis. The comparison is scored in simulated machine cycles — the
// deterministic, host-independent measure every other contract in this
// repository uses — with the speculative schedule charged its full
// critical path: all parent-serial work plus the longest clone in each
// concurrent batch (clone minting is covered separately by
// BenchmarkStandbyCloneWarm). Host wall-clock would instead measure how
// many cores the CI machine happens to have.
func BenchmarkSpeculativeRecoveryGuard(b *testing.B) {
	const budget = 5.0
	var speedup float64
	for i := 0; i < b.N; i++ {
		serialSup, serialStats, serialTrc := runSpecBench(b, false)
		specSup, specStats, specTrc := runSpecBench(b, true)

		serialSite := checkSpecBenchRun(b, "serial", serialSup, serialStats)
		specSite := checkSpecBenchRun(b, "speculative", specSup, specStats)
		if serialSite != specSite {
			b.Fatalf("diagnosed site diverges: serial %s, speculative %s", serialSite, specSite)
		}
		if rb := serialSup.Recoveries[0].Result.Rollbacks; rb < 40 {
			b.Fatalf("serial diagnosis took %d rollbacks; the workload no longer builds a deep ladder", rb)
		}
		st := specSup.Speculation()
		if st.Launched < 40 || st.StandbyHits < 1 {
			b.Fatalf("speculation stats %+v: want a full ladder launched and the standby clone used", st)
		}

		sBegin, sEnd, _, _ := diagWindow(b, serialTrc.Snapshot())
		serialCycles := sEnd - sBegin
		specCycles := specCriticalPath(b, specTrc.Snapshot())
		speedup = float64(serialCycles) / float64(specCycles)

		b.ReportMetric(float64(serialCycles)/1e6, "serial-Mcycles")
		b.ReportMetric(float64(specCycles)/1e6, "spec-Mcycles")
		b.ReportMetric(serialSup.Recoveries[0].RecoveryWall.Seconds()*1e3, "serial-recovery-ms")
		b.ReportMetric(specSup.Recoveries[0].RecoveryWall.Seconds()*1e3, "spec-recovery-ms")
	}
	b.ReportMetric(speedup, "speedup-x")
	if speedup < budget {
		b.Fatalf("speculative diagnosis critical path is only %.2fx shorter than serial, budget %.1fx", speedup, budget)
	}
}

// BenchmarkStandbyCloneWarm prices the standby clone: the cost of minting
// one pre-warmed COW speculation clone from a machine with a warm heap —
// the cost the supervisor pays at every checkpoint so that recovery
// launches its first hypothesis at zero clone latency. The log-length axis
// guards the replay log's O(1) clone: both sizes must cost the same.
func BenchmarkStandbyCloneWarm(b *testing.B) {
	for _, n := range []struct {
		name   string
		events int
	}{{"events=1k", 1000}, {"events=100k", 100000}} {
		b.Run(n.name, func(b *testing.B) {
			m := warmCloneMachine(b, n.events)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c := m.CloneForSpeculation(); c == nil {
					b.Fatal("clone failed")
				}
			}
		})
	}
}

// warmCloneMachine returns a machine whose replay log holds events
// recorded benign requests, warmed by executing the first 400 of them
// with checkpoints: a warm heap and a full checkpoint ring, identical for
// every log length, so the log is the only thing that differs between
// sizes.
func warmCloneMachine(tb testing.TB, events int) *Machine {
	tb.Helper()
	log := replay.NewLog()
	for i := 0; i < events; i++ {
		log.Append("req", "", i)
	}
	m := NewMachine(specBench{}, log, MachineConfig{
		Checkpoint: checkpoint.Config{Keep: sbKeep},
	})
	for i := 0; i < 400; i++ {
		if f, ok := m.Step(); !ok || f != nil {
			tb.Fatalf("warm-up step %d: ok=%v fault=%v", i, ok, f)
		}
		m.Ckpt.MaybeCheckpoint()
	}
	return m
}
