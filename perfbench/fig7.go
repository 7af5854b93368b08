package main

import (
	"context"
	"fmt"
	"runtime"

	"pathfinder/internal/attack"
	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
	"pathfinder/internal/harness"
	"pathfinder/internal/jpeg"
	"pathfinder/internal/media"
	"pathfinder/internal/pathfinder"
	"pathfinder/internal/victim"
)

// fig7-image: harness.Fig7ImageRecovery at the imagerecover defaults over
// the first two (QR-like) test images.
const (
	fig7Size    = 16
	fig7Quality = 60
	fig7Images  = 2
)

// fig7Seed is the harness seed of every Fig. 7 op, the historical default.
// The workload seed does not enter: the inputs are the fixed first two test
// images, and the machine seed alone moves an op's time by up to ±18 %
// (extended-read probes differ), which two ops per run cannot average out.
const fig7Seed = harness.DefaultFig7Seed

func fig7Check(rep *harness.Fig7Report) opOut {
	out := opOut{key: "images", counters: rep.Stats}
	var acc []float64
	for _, img := range rep.Images {
		acc = append(acc, img.FlagAccuracy)
		switch {
		case img.Err != "":
			out.failure = fmt.Sprintf("image %s: %s", img.Name, img.Err)
		case img.FlagAccuracy < 1:
			out.failure = fmt.Sprintf("image %s: flag accuracy %.4f below 1.000", img.Name, img.FlagAccuracy)
		}
	}
	out.accuracy = mean(acc)
	return out
}

func fig7Op(ctx context.Context) (opOut, error) {
	rep, err := harness.Fig7ImageRecovery(ctx, harness.Options{Seed: fig7Seed}, fig7Size, fig7Quality, fig7Images)
	if err != nil {
		return opOut{}, err
	}
	return fig7Check(rep), nil
}

// fig7Replica is the traced form of Fig7ImageRecovery: per image, the JPEG
// round trip, a machine seeded by the image index, and the attack layer's
// Recover, with the harness driver's retry schedule. The two images form
// one shard group in the harness driver, so they run in order here too.
func fig7Replica(ctx context.Context, seed int64, tr *tracer) (*harness.Fig7Report, error) {
	set := media.TestSet(fig7Size)[:fig7Images]
	rep := &harness.Fig7Report{}
	for i, entry := range set {
		id := tr.start("jpeg.Encode+DecodeBlocks", 0)
		enc, err := jpeg.Encode(entry.Image.Pix, entry.Image.W, entry.Image.H, fig7Quality)
		var blocks []jpeg.Block
		if err == nil {
			_, blocks, err = jpeg.DecodeBlocks(enc)
		}
		tr.stop(id, 0)
		if err != nil {
			return nil, err
		}
		var res *attack.ImageResult
		var stats cpu.Counters
		rerr := harness.Retry{}.Do(ctx, seed+int64(i), func(attempt int) error {
			id := tr.start("cpu.New", 0)
			tm := cpu.New(cpu.Options{Seed: seed + int64(i) + 1000*int64(attempt)})
			tr.stop(id, 0)
			id = tr.start("attack.ImageRecovery.Recover", 0)
			ir := &attack.ImageRecovery{M: tm}
			res, err = ir.Recover(enc)
			tr.stop(id, 0)
			stats.Add(tm.Stats())
			return err
		})
		rep.Stats.Add(stats)
		if rerr != nil {
			rep.Images = append(rep.Images, harness.Fig7Result{Name: entry.Name, Err: rerr.Error()})
			continue
		}
		wantCols, wantRows := attack.GroundTruthFlags(blocks)
		correct, total := 0, 0
		for b := range blocks {
			for k := 0; k < 8; k++ {
				if res.ConstCols[b][k] == wantCols[b][k] {
					correct++
				}
				if res.ConstRows[b][k] == wantRows[b][k] {
					correct++
				}
				total += 2
			}
		}
		id = tr.start("attack.ImageResult.Score", 0)
		err = res.Score(entry.Image)
		tr.stop(id, 0)
		if err != nil {
			return nil, err
		}
		rep.Images = append(rep.Images, harness.Fig7Result{
			Name:            entry.Name,
			TakenBranches:   res.TakenBranches,
			FlagAccuracy:    float64(correct) / float64(total),
			EdgeCorrelation: res.EdgeCorrelation,
		})
	}
	return rep, nil
}

// fig7Layers replays, for the first image, the primitives Recover reaches
// internally: Extended Read PHR (giving the probe count and the recovered
// spec), Read PHR, one dense-engine run of the capture program, and the
// Pathfinder search over the recovered spec. One image keeps the traced run
// well inside its time limit.
func fig7Layers(seed int64, tr *tracer, l layerSet) error {
	set := media.TestSet(fig7Size)[:1]
	probes, taken := 0, 0
	for i, entry := range set {
		enc, err := jpeg.Encode(entry.Image.Pix, entry.Image.W, entry.Image.H, fig7Quality)
		if err != nil {
			return err
		}
		_, blocks, err := jpeg.DecodeBlocks(enc)
		if err != nil {
			return err
		}
		v := victim.IDCTVictim(len(blocks), blocks)
		opts := cpu.Options{Seed: seed + int64(i)}
		id := tr.start("core.ExtendedReadPHR", 0)
		rec, err := core.ExtendedReadPHR(cpu.New(opts), v, core.ExtendedOptions{})
		tr.stop(id, 0)
		if err != nil {
			return err
		}
		probes += rec.Probes
		taken += takenSteps(rec)
		id = tr.start("core.ReadPHR", 0)
		_, err = core.ReadPHR(cpu.New(opts), v, core.ReadPHROptions{})
		tr.stop(id, 0)
		if err != nil {
			return err
		}
		m := cpu.New(opts)
		if v.Setup != nil {
			v.Setup(m)
		}
		id = tr.start("cpu.Machine.Run", 0)
		err = m.Run(rec.CaptureProgram, "cap_main")
		tr.stop(id, m.Stats().Instructions)
		if err != nil {
			return err
		}
		if err := searchReplay(tr, l, rec, v); err != nil {
			return err
		}
	}
	l["core.probes"] = float64(probes)
	l["core.taken_branches"] = float64(taken)
	return nil
}

// searchReplay rebuilds the capture program's CFG and reruns the final
// Pathfinder search over a recovered spec, recording its time and
// allocations (the last replay's figures win).
func searchReplay(tr *tracer, l layerSet, rec *core.ExtendedResult, v core.Victim) error {
	runtime.GC()
	before := readProc()
	id := tr.start("pathfinder.Build+SearchDAG", 0)
	cfg, err := pathfinder.Build(rec.CaptureProgram)
	if err == nil {
		for from, entry := range v.Transfers {
			cfg.AddTransfer(rec.CaptureProgram.MustSymbol(from), rec.CaptureProgram.MustSymbol(entry))
		}
		_, err = cfg.SearchDAG(pathfinder.Spec{
			Observed:     rec.Window,
			Ext:          rec.Ext,
			Entry:        rec.Entry,
			Final:        rec.Final,
			MaxReversals: len(rec.Ext) + rec.Window.Size(),
		})
	}
	tr.stop(id, 0)
	after := readProc()
	l["pathfinder.search_allocs"] = float64(after.mallocs - before.mallocs)
	l["pathfinder.search_alloc_mb"] = float64(after.allocBytes-before.allocBytes) / (1 << 20)
	return err
}

func init() {
	register(&workload{
		name:      "fig7-image",
		setupReps: 1,
		minOps:    2,
		params: func(seed int64) map[string]any {
			return map[string]any{"driver": "harness.Fig7ImageRecovery", "size": fig7Size, "quality": fig7Quality,
				"images": fig7Images, "fig7_seed": fig7Seed, "parallelism": runtime.GOMAXPROCS(0)}
		},
		setup: func(ctx context.Context, b *bench, r int) (opOut, error) { return fig7Op(ctx) },
		op:    func(ctx context.Context, b *bench, i int) (opOut, error) { return fig7Op(ctx) },
		traced: func(ctx context.Context, b *bench, i int, tr *tracer) (opOut, error) {
			rep, err := fig7Replica(ctx, fig7Seed, tr)
			if err != nil {
				return opOut{}, err
			}
			var edge []float64
			for _, img := range rep.Images {
				edge = append(edge, img.EdgeCorrelation)
			}
			b.state = mean(edge)
			return fig7Check(rep), nil
		},
		layers: func(ctx context.Context, b *bench, tr *tracer, l layerSet) error {
			// The last traced op left its mean edge correlation in the state.
			l["attack.edge_correlation"], _ = b.state.(float64)
			return fig7Layers(fig7Seed, tr, l)
		},
	})
}
