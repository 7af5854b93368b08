package core_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"pathfinder/internal/core"
	"pathfinder/internal/cpu"
	"pathfinder/internal/jpeg"
	"pathfinder/internal/media"
	"pathfinder/internal/victim"
)

var update = flag.Bool("update", false, "rewrite testdata/extended_golden.json")

const extendedGoldenFile = "testdata/extended_golden.json"

// extendedGolden pins one Extended Read PHR run: the recovered extension,
// the recovered path and the number of oracle probes it cost.
type extendedGolden struct {
	Name     string `json:"name"`
	Ext      string `json:"ext"` // doublets, Ext[0] first
	Steps    int    `json:"steps"`
	Complete bool   `json:"complete"`
	PathFNV  string `json:"path_fnv"` // FNV-1a of Path.String()
	Probes   int    `json:"probes"`
	Err      string `json:"err,omitempty"`
	Taken    int    `json:"taken"`
}

type extendedCase struct {
	name string
	seed int64
	v    core.Victim
}

// extendedCases are the victims of the search golden corpus that the
// attack itself recovers: Fig. 5 patterned loops, random CFGs, the
// junction-heavy check chain and the first 16 px Fig. 7 image.
func extendedCases(t *testing.T) []extendedCase {
	cases := []extendedCase{
		{"fig5-loop-40", 13, victim.PatternedLoop(40, victim.RandomPattern(40, 13))},
		{"fig5-loop-150", 13, victim.PatternedLoop(150, victim.RandomPattern(150, 20))},
		{"randomcfg-23", 23, victim.RandomCFG(23, 6)},
		{"randomcfg-24", 24, victim.RandomCFG(24, 7)},
	}
	rng := rand.New(rand.NewSource(31))
	pattern := make([]byte, 120)
	for i := range pattern {
		pattern[i] = byte(rng.Intn(9))
	}
	cases = append(cases, extendedCase{"check-chain", 5, core.ChainVictim(120, pattern)})
	img := media.TestSet(16)[0].Image
	enc, err := jpeg.Encode(img.Pix, img.W, img.H, 60)
	if err != nil {
		t.Fatal(err)
	}
	_, blocks, err := jpeg.DecodeBlocks(enc)
	if err != nil {
		t.Fatal(err)
	}
	return append(cases, extendedCase{"fig7-qr1-16px", 29, victim.IDCTVictim(len(blocks), blocks)})
}

func runExtended(c extendedCase) extendedGolden {
	g := extendedGolden{Name: c.name}
	res, err := core.ExtendedReadPHR(cpu.New(cpu.Options{Seed: c.seed}), c.v, core.ExtendedOptions{})
	if err != nil {
		g.Err = err.Error()
		return g
	}
	var b strings.Builder
	for _, d := range res.Ext {
		b.WriteByte('0' + d)
	}
	g.Ext = b.String()
	g.Steps = len(res.Path.Steps)
	g.Complete = res.Path.Complete
	h := fnv.New64a()
	h.Write([]byte(res.Path.String()))
	g.PathFNV = fmt.Sprintf("%016x", h.Sum64())
	g.Probes = res.Probes
	for _, s := range res.Path.Steps {
		if s.Taken {
			g.Taken++
		}
	}
	return g
}

// TestExtendedReadGolden pins Extended Read PHR end to end (search, suffix
// climb, junction probes) on the golden victims. Regenerate with -update.
func TestExtendedReadGolden(t *testing.T) {
	cases := extendedCases(t)
	if *update {
		var all []extendedGolden
		for _, c := range cases {
			all = append(all, runExtended(c))
		}
		raw, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(extendedGoldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(extendedGoldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []extendedGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("golden has %d cases, corpus %d (regenerate with -update)", len(want), len(cases))
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := runExtended(c); got != want[i] {
				t.Fatalf("extended read drifted\n got: %+v\nwant: %+v", got, want[i])
			}
		})
	}
}
