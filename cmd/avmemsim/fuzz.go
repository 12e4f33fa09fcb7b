package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"avmem/internal/fuzzgen"
)

// fuzzScenarios runs a metamorphic fuzz campaign: generate random valid
// scenarios from consecutive seeds, run each through every invariant
// oracle (determinism, obs neutrality, RunMany agreement, cross-engine shape,
// semantic bounds), and minimize any failure into the corpus directory.
// Exits non-zero when any oracle tripped, so CI can gate on it.
func fuzzScenarios(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("avmemsim fuzz", flag.ContinueOnError)
	budget := fs.Duration("budget", 60*time.Second, "wall-clock generation budget")
	seed := fs.Int64("seed", 1, "first generator seed; scenario i uses seed+i")
	maxN := fs.Int("max", 0, "stop after this many scenarios (0 = budget-only)")
	minN := fs.Int("min", 25, "keep going past the budget until this many scenarios ran")
	corpus := fs.String("corpus", "scenarios/fuzz-corpus", "directory for minimized failing specs ('' = don't write)")
	quiet := fs.Bool("q", false, "suppress per-seed progress lines")
	maxHosts := fs.Int("max-hosts", 0, "cap generated fleet sizes (0 = generator default of 2000)")
	specTimeout := fs.Duration("spec-timeout", 2*time.Minute, "per-scenario oracle deadline; exceeding it aborts the campaign as a hang")
	shrinkEvals := fs.Int("shrink-evals", 60, "oracle evaluations the shrinker may spend per failing seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: avmemsim fuzz [-budget d] [-seed N] [-max N] [-min N] [-corpus dir] [-max-hosts N] [-spec-timeout d] [-shrink-evals N] [-q]")
	}
	opts := fuzzgen.Options{
		Budget:      *budget,
		Seed:        *seed,
		Max:         *maxN,
		Min:         *minN,
		SpecTimeout: *specTimeout,
		ShrinkEvals: *shrinkEvals,
		CorpusDir:   *corpus,
		Gen:         fuzzgen.GenOptions{MaxHosts: *maxHosts},
	}
	if !*quiet {
		opts.Log = os.Stderr
	}
	rep, err := fuzzgen.Campaign(opts)
	if rep != nil {
		rep.WriteReport(out)
	}
	if err != nil {
		return err
	}
	if rep.Failed() {
		return fmt.Errorf("fuzz: %d seed(s) violated invariant oracles", len(rep.Findings))
	}
	return nil
}
