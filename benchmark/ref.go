package main

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel is the benchmark's yardstick for the speed of the
// machine. The box the benchmark runs on is a few virtual cores of a
// shared host: when a neighbour is busy, every instruction stream in the
// guest runs slower - 25-30% for minutes at a time, in CPU time as much
// as in wall time - and no estimator over the reps of one 30-second run
// removes that. So every timed rep is bracketed by two samples of a
// fixed piece of work that belongs to the harness, not to the program,
// and the rep's times are divided by how much slower than refNominal
// that work ran. What is reported is "milliseconds at reference speed":
// a change to the program moves it exactly as it moves the raw time,
// while a slow phase of the host moves the rep and its brackets alike
// and cancels.
//
// The work has the three ingredients of the workloads' own instruction
// mix (README.md, CPU shares): SHA-256 of short messages (compute),
// probes at scattered addresses of a table that misses the L2 cache
// (memory latency), and short slices that are filled and sorted
// (branchy code). It uses the standard library only, so no change to the
// repository can make it faster, and it runs on the calling goroutine
// and allocates nothing, so it starts no garbage collection: on a guest
// that is given less than its two cores' worth of host time, helper
// threads would slow the sample itself. The table lives outside the Go
// heap, so it neither changes the pace of the program's garbage
// collection nor is scanned by it; its size is known exactly and is
// taken out of peak_rss_mb.
type refKernel struct {
	table []uint64
	// div shortens a sample to 1/div of the work (and of refNominal): 1
	// in a real run, more in the harness test.
	div  int
	sink uint64
}

const (
	refTableBytes = 32 << 20 // misses the 4 MB L2
	refHashes     = 2_000_000
	refProbes     = 6_000_000
	refSorts      = 150_000
	// refNominal is what one sample costs on the quiet recording box
	// (wall and CPU agree there). It only fixes the unit: dividing by it
	// makes the speed factor 1 on that box.
	refNominal = 400 * time.Millisecond
)

// splitmix64 is the harness's own generator: fixed inputs for the
// reference kernel, independent of math/rand's implementation.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newRefKernel(div int) (*refKernel, error) {
	mem, err := syscall.Mmap(-1, 0, refTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	k := &refKernel{table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refTableBytes/8), div: div}
	state := uint64(1)
	for i := range k.table { // touches every page: the table is resident from here on
		k.table[i] = splitmix64(&state)
	}
	return k, nil
}

// work does one sample's fixed work.
func (k *refKernel) work() {
	sum := k.sink

	var msg [16]byte
	for i := uint64(0); i < uint64(refHashes/k.div); i++ {
		binary.LittleEndian.PutUint64(msg[:], i)
		h := sha256.Sum256(msg[:])
		sum += uint64(h[0])
	}

	// Four independent probe chains, as a hash map's lookups are
	// independent of each other: each next address depends on the value
	// just loaded.
	mask := uint64(len(k.table) - 1)
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < refProbes/4/k.div; i++ {
		a = k.table[(a*0x9e3779b97f4a7c15)>>7&mask] + uint64(i)
		b = k.table[(b*0x9e3779b97f4a7c15)>>7&mask] + uint64(i)
		c = k.table[(c*0x9e3779b97f4a7c15)>>7&mask] + uint64(i)
		d = k.table[(d*0x9e3779b97f4a7c15)>>7&mask] + uint64(i)
	}
	sum += a + b + c + d

	state := uint64(5)
	var buf [32]uint64
	for i := 0; i < refSorts/k.div; i++ {
		for j := range buf {
			buf[j] = splitmix64(&state)
		}
		slices.Sort(buf[:])
		sum += buf[0]
	}
	k.sink = sum
}

// refSample is what one run of the reference kernel cost.
type refSample struct {
	wall, cpu time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sample times the kernel once. The collection first finishes whatever
// the rep before it left for the background collector, whose threads
// would otherwise run beside the sample.
func (k *refKernel) sample() refSample {
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	k.work()
	return refSample{wall: time.Since(t0), cpu: cpuTime() - c0}
}

// speed is how much slower than the reference the machine ran over an
// interval, for wall and for CPU time: the mean of the bracketing samples
// over refNominal. 1.25 means everything took 25% longer.
type speed struct {
	wall, cpu float64
}

func (k *refKernel) speedBetween(before, after refSample) speed {
	nominal := float64(refNominal) / float64(k.div)
	return speed{
		wall: float64(before.wall+after.wall) / 2 / nominal,
		cpu:  float64(before.cpu+after.cpu) / 2 / nominal,
	}
}
