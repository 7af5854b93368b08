package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pathfinder/internal/aes"
	"pathfinder/internal/attack"
	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
	"pathfinder/internal/faultinject"
	"pathfinder/internal/harness"
	"pathfinder/internal/phr"
	"pathfinder/internal/victim"
)

// aes-keyrec: harness.AESLeakEval at the aeskeyrec CLI defaults with the
// default fault profile armed. The process stays warm after the first op.
const (
	aesTrials = 120
	aesNoise  = 0.015
	// aesMinRate and aesMaxRate bound the byte success rate of one op. The
	// paper reports 98.43 %; one op samples 120 trials, whose byte rate
	// spreads with a standard deviation of about 0.013 across seeds, so the
	// band sits about four deviations below the paper figure.
	aesMinRate = 0.93
	aesMaxRate = 1.0
	// aesBatch is the harness driver's default trial-group grain.
	aesBatch = 8
)

// aesKey is the FIPS-197 appendix key the harness evaluates against.
var aesKey = []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
	0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}

// aesSeedsPerRun is how many AES seeds one run cycles through. Allocation
// counts and byte rates of one op vary by about ±12 % and ±2 % from seed
// to seed, so a run averages over several seeds, each warmed in its own
// set-up, to keep runs with different workload seeds comparable.
const aesSeedsPerRun = 12

// aesSeeds maps the workload seed to the run's harness seeds; the default
// workload seed starts at the CLI default 31.
func aesSeeds(seed int64) []int64 {
	out := make([]int64, aesSeedsPerRun)
	for j := range out {
		out[j] = 30 + seed + 1000*int64(j)
	}
	return out
}

func aesKeyOf(aesSeed int64) string { return fmt.Sprintf("seed=%d", aesSeed) }

func aesCheck(aesSeed int64, res *harness.AESEvalResult) opOut {
	out := opOut{key: aesKeyOf(aesSeed), accuracy: res.SuccessRate, counters: res.Stats}
	switch {
	case !res.KeyRecovered:
		out.failure = "AES key not recovered"
	case res.SuccessRate < aesMinRate || res.SuccessRate > aesMaxRate:
		out.failure = fmt.Sprintf("byte success rate %.4f outside [%g, %g]", res.SuccessRate, aesMinRate, aesMaxRate)
	}
	return out
}

func aesOp(ctx context.Context, aesSeed int64) (opOut, error) {
	prof := faultinject.Default()
	res, err := harness.AESLeakEval(ctx, harness.Options{Seed: aesSeed, Faults: &prof}, aesTrials, aesNoise)
	if err != nil {
		return opOut{}, err
	}
	return aesCheck(aesSeed, res), nil
}

// aesReplica is the traced form of AESLeakEval: the same public calls the
// harness driver makes, in the same order and on the same seeds, each
// timed.
type aesReplica struct {
	seed int64
	snap *cpu.Snapshot
	rec  *core.ExtendedResult
	pts  []aes.Block
	ns   []int
}

func newAESReplica(aesSeed int64) *aesReplica {
	r := &aesReplica{seed: aesSeed}
	// The harness driver's plaintext and early-exit stream (splitmix64
	// seeded with seed*977), drawn before sharding.
	s := uint64(r.seed) * 977
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	r.pts = make([]aes.Block, aesTrials)
	r.ns = make([]int, aesTrials)
	for t := range r.pts {
		for i := range r.pts[t] {
			r.pts[t][i] = byte(next())
		}
		r.ns[t] = int(next() % 9)
	}
	return r
}

// primaryOptions are the options of the harness driver's fault-exempt
// primary machine.
func (r *aesReplica) primaryOptions() cpu.Options {
	return cpu.Options{Seed: r.seed, Noise: aesNoise}
}

// aesVictim is the victim RecoverControlFlow reads: the AES program with
// the context installed on every setup.
func aesVictim(ctxAES *victim.AESContext) core.Victim {
	v := victim.AESVictim()
	setup := v.Setup
	v.Setup = func(m *cpu.Machine) {
		if setup != nil {
			setup(m)
		}
		ctxAES.Install(m)
	}
	return v
}

// train runs phase 1 (control-flow recovery) once and checkpoints it, as
// the harness driver's first op does.
func (r *aesReplica) train(tr *tracer) error {
	id := tr.start("cpu.New", 0)
	m := cpu.New(r.primaryOptions())
	tr.stop(id, 0)
	a, err := attack.NewAESAttack(m, aesKey)
	if err != nil {
		return err
	}
	a.Ctx.SetPlaintext(m, aes.Block{})
	id = tr.start("core.ExtendedReadPHR", 0)
	rec, err := core.ExtendedReadPHR(m, aesVictim(a.Ctx), core.ExtendedOptions{})
	tr.stop(id, 0)
	if err != nil {
		return err
	}
	if err := a.AdoptRecovery(rec); err != nil {
		return err
	}
	id = tr.start("cpu.Snapshot", 0)
	r.snap = m.Snapshot()
	tr.stop(id, 0)
	r.rec = rec
	return nil
}

// op replays one warm AESLeakEval op.
func (r *aesReplica) op(ctx context.Context, tr *tracer) (*harness.AESEvalResult, error) {
	id := tr.start("cpu.New", 0)
	m := cpu.New(r.primaryOptions())
	tr.stop(id, 0)
	id = tr.start("attack.NewAESAttack", 0)
	a, err := attack.NewAESAttack(m, aesKey)
	tr.stop(id, 0)
	if err != nil {
		return nil, err
	}
	id = tr.start("cpu.RestoreFrom", 0)
	m.RestoreFrom(r.snap)
	tr.stop(id, 0)
	if err := a.AdoptRecovery(r.rec); err != nil {
		return nil, err
	}

	prof := faultinject.Default()
	successes := make([]int, aesTrials)
	fails := make([]bool, aesTrials)
	stats := make([]cpu.Counters, aesTrials)
	trial := func(b *cpu.Batch, t, j int) {
		err := harness.Retry{}.Do(ctx, r.seed+int64(t), func(attempt int) error {
			tco := cpu.Options{Seed: r.seed + 7919*int64(t+1) + 1_000_003*int64(attempt), Faults: &prof, Noise: aesNoise}
			id := tr.start("cpu.Recycle", 0)
			tm := b.Lane(j)
			tm.Recycle(tco)
			tr.stop(id, 0)
			wid := tr.start("attack.Fork+Warm", 0)
			ta, err := a.Fork(tm)
			for i := 0; err == nil && i < 2; i++ {
				before := tm.Stats().Instructions
				rid := tr.start("cpu.Machine.Run", wid)
				err = tm.Run(ta.Rec.CaptureProgram, "cap_main")
				tr.stop(rid, tm.Stats().Instructions-before)
			}
			tr.stop(wid, 0)
			if err != nil {
				stats[t].Add(tm.Stats())
				return err
			}
			id = tr.start("attack.LeakReducedRound", 0)
			leak, ok, err := ta.LeakReducedRound(r.pts[t], r.ns[t])
			tr.stop(id, 0)
			if err != nil {
				stats[t].Add(tm.Stats())
				return err
			}
			want, err := ta.GroundTruthReduced(r.pts[t], r.ns[t])
			if err != nil {
				stats[t].Add(tm.Stats())
				return err
			}
			n := 0
			for i := 0; i < 16; i++ {
				if ok[i] && leak[i] == want[i] {
					n++
				}
			}
			successes[t] = n
			stats[t].Add(tm.Stats())
			return nil
		})
		if err != nil {
			fails[t] = true
		}
	}
	// Trials run in groups of aesBatch on the lanes of pooled batches,
	// claimed by GOMAXPROCS workers, as in the harness driver's pool; each
	// trial's work depends on its index alone.
	var pool sync.Pool
	groups := (aesTrials + aesBatch - 1) / aesBatch
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), groups); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := int(next.Add(1) - 1); g < groups; g = int(next.Add(1) - 1) {
				b, _ := pool.Get().(*cpu.Batch)
				if b == nil {
					id := tr.start("cpu.NewBatch", 0)
					b = cpu.NewBatch(cpu.Options{Seed: r.seed, Faults: &prof}, aesBatch)
					tr.stop(id, 0)
				}
				lo := g * aesBatch
				for t := lo; t < min(lo+aesBatch, aesTrials); t++ {
					trial(b, t, t-lo)
				}
				pool.Put(b)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &harness.AESEvalResult{Trials: aesTrials}
	for t := 0; t < aesTrials; t++ {
		res.TotalBytes += 16
		res.ByteSuccesses += successes[t]
		res.Stats.Add(stats[t])
		if fails[t] {
			res.FailedTrials++
		}
	}
	res.SuccessRate = float64(res.ByteSuccesses) / float64(res.TotalBytes)
	id = tr.start("attack.RecoverKey", 0)
	key, _, err := a.RecoverKey(64)
	tr.stop(id, 0)
	res.KeyRecovered = err == nil && key == aes.Block(aesKey)
	res.Stats.Add(m.Stats())
	return res, nil
}

// layers replays the primitives the AES op reaches only through the
// attack layer, each on its own scratch machine so the op's state is
// untouched: Read PHR, the PHT writes and the Flush+Reload decode of every
// trial, and the Pathfinder search over the recovered spec.
func (r *aesReplica) layers(tr *tracer, l layerSet) error {
	m := cpu.New(r.primaryOptions())
	a, err := attack.NewAESAttack(m, aesKey)
	if err != nil {
		return err
	}
	a.Ctx.SetPlaintext(m, aes.Block{})
	id := tr.start("core.ReadPHR", 0)
	_, err = core.ReadPHR(m, aesVictim(a.Ctx), core.ReadPHROptions{})
	tr.stop(id, 0)
	if err != nil {
		return err
	}
	l["core.probes"] = float64(r.rec.Probes)
	l["core.taken_branches"] = float64(takenSteps(r.rec))

	prog := r.rec.CaptureProgram
	loopPC, entryPC := prog.MustSymbol("aes_loopbr"), prog.MustSymbol("aes_entrycheck")
	// Trial t poisons from lane t mod aesBatch of a batch, recycled to the
	// trial's options, as one worker of the op does. A fresh lane assembles
	// its alias templates on first use, so the allocation total, not a
	// typical call, is the figure that tracks allocs_per_op.
	prof := faultinject.Default()
	batch := cpu.NewBatch(cpu.Options{Seed: r.seed, Faults: &prof}, aesBatch)
	allocs := uint64(0)
	for t := 0; t < aesTrials; t++ {
		pc, instance, dir := loopPC, r.ns[t], false
		if r.ns[t] == 0 {
			pc, instance, dir = entryPC, 1, true
		}
		target, err := phrBefore(r.rec, m.Arch().PHRSize, pc, instance)
		if err != nil {
			return err
		}
		lane := batch.Lane(t % aesBatch)
		lane.Recycle(cpu.Options{Seed: r.seed + 7919*int64(t+1), Faults: &prof, Noise: aesNoise})
		before := readProc().mallocs
		id := tr.start("core.WritePHT", 0)
		err = core.WritePHT(lane, pc, target, dir)
		tr.stop(id, 0)
		allocs += readProc().mallocs - before
		if err != nil {
			return err
		}
		id = tr.start("victim.FlushProbe+ReadProbe", 0)
		victim.FlushProbe(lane)
		victim.ReadProbe(lane)
		tr.stop(id, 0)
	}
	l["core.write_pht_allocs"] = float64(allocs)
	return searchReplay(tr, l, r.rec, aesVictim(a.Ctx))
}

// phrBefore is the path history just before the instance-th execution of
// the branch at pc along the recovered path: the PHT-write target the
// attack poisons for an early exit at that branch.
func phrBefore(rec *core.ExtendedResult, size int, pc uint64, instance int) (*phr.Reg, error) {
	reg := phr.New(size)
	seen := 0
	for _, s := range rec.Path.Steps {
		if s.Addr == pc {
			seen++
			if seen == instance {
				return reg, nil
			}
		}
		if s.Taken {
			reg.UpdateBranch(s.Addr, s.Target)
		}
	}
	return nil, fmt.Errorf("branch %#x has %d instances, want %d", pc, seen, instance)
}

func takenSteps(rec *core.ExtendedResult) int {
	n := 0
	for _, s := range rec.Path.Steps {
		if s.Taken {
			n++
		}
	}
	return n
}

func init() {
	var reps []*aesReplica
	register(&workload{
		name:      "aes-keyrec",
		setupReps: aesSeedsPerRun,
		minOps:    20,
		params: func(seed int64) map[string]any {
			return map[string]any{"driver": "harness.AESLeakEval", "trials": aesTrials, "noise": aesNoise,
				"aes_seeds": aesSeeds(seed), "faults": faultinject.Default(), "parallelism": runtime.GOMAXPROCS(0)}
		},
		// Set-up r warms seed r from an empty cache; the first one empties
		// the process-wide warm cache.
		setup: func(ctx context.Context, b *bench, r int) (opOut, error) {
			if r == 0 {
				harness.ResetWarmCache()
			}
			return aesOp(ctx, aesSeeds(b.cfg.seed)[r%aesSeedsPerRun])
		},
		op: func(ctx context.Context, b *bench, i int) (opOut, error) {
			return aesOp(ctx, aesSeeds(b.cfg.seed)[i%aesSeedsPerRun])
		},
		prepareTraced: func(ctx context.Context, b *bench, tr *tracer) error {
			reps = nil
			for _, s := range aesSeeds(b.cfg.seed) {
				r := newAESReplica(s)
				if err := r.train(tr); err != nil {
					return err
				}
				reps = append(reps, r)
			}
			return nil
		},
		traced: func(ctx context.Context, b *bench, i int, tr *tracer) (opOut, error) {
			r := reps[i%aesSeedsPerRun]
			res, err := r.op(ctx, tr)
			if err != nil {
				return opOut{}, err
			}
			return aesCheck(r.seed, res), nil
		},
		layers: func(ctx context.Context, b *bench, tr *tracer, l layerSet) error { return reps[0].layers(tr, l) },
	})
}
