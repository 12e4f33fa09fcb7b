package scenario

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
)

// Aggregate summarizes one metric across the seeds that produced it.
type Aggregate struct {
	Mean, Min, Max float64
	// N is how many runs produced the metric (workload metrics exist
	// only when the corresponding event kind ran — normally all or none).
	N int
}

// MultiResult is the outcome of a multi-seed scenario sweep.
type MultiResult struct {
	Name  string
	Seeds []int64
	// Runs holds the per-seed results, in Seeds order regardless of
	// completion order.
	Runs []*Result
	// Metrics aggregates every metric across the runs.
	Metrics map[string]Aggregate
	// Failures lists violated assertions across all runs, each prefixed
	// with the seed that violated it.
	Failures []string
}

// Passed reports whether every assertion held in every run.
func (r *MultiResult) Passed() bool { return len(r.Failures) == 0 }

// WriteReport renders the aggregated metrics and assertion verdicts.
func (r *MultiResult) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "== scenario %q × %d seeds ==\n", r.Name, len(r.Seeds))
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %-10s %-10s %-10s %s\n", "metric", "mean", "min", "max", "runs")
	for _, name := range names {
		a := r.Metrics[name]
		fmt.Fprintf(w, "%-24s %-10.4f %-10.4f %-10.4f %d\n", name, a.Mean, a.Min, a.Max, a.N)
	}
	if r.Passed() {
		fmt.Fprintf(w, "PASS: all assertions held across %d seed(s)\n", len(r.Seeds))
		return
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
}

// RunMany executes the scenario once per seed and aggregates the
// metrics. Determinism is preserved per world, parallelism lives across
// worlds: each seed gets its own fully independent, single-threaded
// deployment (trace, RNG, event queue), at most parallelism of them in
// flight at once (<= 0 means GOMAXPROCS), and results are folded in
// seeds order — so the aggregate is bit-identical for any parallelism,
// including 1.
//
// opts.Log receives one completion line per seed (runs themselves are
// silent; interleaved per-event logs would be unreadable). A violated
// assertion is reported in MultiResult.Failures; err is reserved for
// scenarios that cannot execute.
func RunMany(spec *Spec, seeds []int64, parallelism int, opts Options) (*MultiResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("scenario: RunMany needs at least one seed")
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(seeds) {
		parallelism = len(seeds)
	}
	logw := opts.Log
	if logw == nil {
		logw = io.Discard
	}

	runs := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	var logMu sync.Mutex
	work := make(chan int)
	var wg sync.WaitGroup
	for p := 0; p < parallelism; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// Each worker runs a private copy of the spec with its
				// seed; Run builds a fully independent world from it.
				s := *spec
				s.Seed = seeds[i]
				res, err := Run(&s, Options{Backend: opts.Backend})
				runs[i], errs[i] = res, err
				logMu.Lock()
				if err != nil {
					fmt.Fprintf(logw, "seed %d: error: %v\n", seeds[i], err)
				} else {
					verdict := "pass"
					if !res.Passed() {
						verdict = fmt.Sprintf("%d assertion(s) failed", len(res.Failures))
					}
					fmt.Fprintf(logw, "seed %d: done (%s)\n", seeds[i], verdict)
				}
				logMu.Unlock()
			}
		}()
	}
	for i := range seeds {
		work <- i
	}
	close(work)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario: seed %d: %w", seeds[i], err)
		}
	}

	multi := &MultiResult{
		Name:    spec.Name,
		Seeds:   append([]int64(nil), seeds...),
		Runs:    runs,
		Metrics: make(map[string]Aggregate, len(Metrics)),
	}
	// Fold in seeds order: the aggregate must not depend on which world
	// finished first.
	for i, res := range runs {
		for name, v := range res.Metrics {
			a, ok := multi.Metrics[name]
			if !ok {
				a = Aggregate{Min: v, Max: v}
			}
			a.Mean += v
			if v < a.Min {
				a.Min = v
			}
			if v > a.Max {
				a.Max = v
			}
			a.N++
			multi.Metrics[name] = a
		}
		for _, f := range res.Failures {
			multi.Failures = append(multi.Failures, fmt.Sprintf("seed %d: %s", seeds[i], f))
		}
	}
	for name, a := range multi.Metrics {
		a.Mean /= float64(a.N)
		multi.Metrics[name] = a
	}
	return multi, nil
}

// SeedRange returns n consecutive seeds starting at first — the
// `avmemsim run -seeds n` convention.
func SeedRange(first int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = first + int64(i)
	}
	return out
}
