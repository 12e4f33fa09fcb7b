package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
)

// startProfiles turns on the requested profilers and returns the
// teardown that flushes them; any empty path is skipped. The CPU
// profile and execution trace record the whole run. With a heap profile
// requested, every allocation is recorded (runtime.MemProfileRate = 1)
// before the run starts, so the profile's alloc_objects and alloc_space
// samples are per-site counts of the whole run, not 512 KB samples
// scaled up. They are exact only for objects of 16 bytes or more: the
// runtime records a smaller pointer-free object only when it opens a new
// tiny block, so those are under-counted (runtime.MemStats.Mallocs counts
// them all). Its inuse samples are the live heap at the end of the run,
// the world included: scenario.Run collects before it lets the
// deployment go when every allocation is recorded, and the profile is
// written as of that collection.
func startProfiles(cpu, mem, trace string) (stop func(), err error) {
	if mem != "" {
		runtime.MemProfileRate = 1
	}
	var stops []func()
	fail := func(err error) (func(), error) {
		for _, s := range stops {
			s()
		}
		return nil, err
	}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if trace != "" {
		f, err := os.Create(trace)
		if err != nil {
			return fail(fmt.Errorf("trace: %w", err))
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("trace: %w", err))
		}
		stops = append(stops, func() {
			rtrace.Stop()
			f.Close()
		})
	}
	if mem != "" {
		stops = append(stops, func() {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "avmemsim: memprofile:", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "avmemsim: memprofile:", err)
			}
		})
	}
	return func() {
		// Unwind in reverse so the CPU profile covers the trace stop.
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}, nil
}
