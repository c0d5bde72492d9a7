package main

import (
	"math/bits"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed changes while the benchmark runs: other tenants of a
// shared machine contend for its cores, caches and memory, in bursts of
// seconds and in steps of minutes, and the same rep's CPU time moves by up
// to a factor of two. So while a rep runs, the driver times a fixed
// calibration kernel on the same CPU, pinning the rep's process and the
// kernel's thread to it, and scales the rep's host times to a host whose
// kernel round takes calRefSeconds (README.md, "Host time"). On the same
// CPU the kernel meets the contention the rep meets; on the other CPU of a
// 2-vCPU guest it tracked the rep far worse.

// calRefSeconds is the calibration kernel's mean round, in thread CPU
// seconds, on the reference host: a 2-vCPU KVM guest on an Intel Xeon
// (family 6, model 143). A rep whose rounds take twice as long reports half
// its measured CPU times.
const calRefSeconds = 0.0325

// calEvery is the period of the calibration rounds during a rep; a round
// takes about a fifteenth of it.
const calEvery = 500 * time.Millisecond

// calKernel is simulator-like work of four kinds, each about a quarter of a
// round: an LRU tag scan over a 576 KiB set-associative array, a dependent
// multiply-xorshift chain, four independent chains, and a table-driven state
// machine with unpredictable branches over 256 KiB. It allocates nothing
// after it is made. The mix tracks the simulator's CPU time better than any
// one kind does.
type calKernel struct {
	tags  []uint64
	ages  []uint8
	table []uint32
	sink  uint64
}

const (
	calSets = 1 << 12
	calWays = 16
)

func newCalKernel() *calKernel {
	return &calKernel{
		tags:  make([]uint64, calSets*calWays),
		ages:  make([]uint8, calSets*calWays),
		table: make([]uint32, 1<<16),
	}
}

// round runs the kernel once from its initial state.
func (k *calKernel) round() {
	clear(k.tags)
	clear(k.ages)
	clear(k.table)
	k.sink += k.lru(160_000) + k.chain(2_000_000) + k.chains(4_000_000) + k.branches(750_000)
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func (k *calKernel) lru(n int) uint64 {
	x, stream, hits := uint64(88172645463325252), uint64(0), uint64(0)
	for range n {
		x = xorshift(x)
		line := (x >> 20) % (1 << 20)
		if x&3 == 0 {
			stream++
			line = stream
		}
		base := int(line%calSets) * calWays
		tag := line/calSets + 1
		way := -1
		for w := range calWays {
			if k.tags[base+w] == tag {
				way = w
				hits++
				break
			}
		}
		if way < 0 {
			way = 0
			for w := 1; w < calWays; w++ {
				if k.ages[base+w] > k.ages[base+way] {
					way = w
				}
			}
			k.tags[base+way] = tag
		}
		age := k.ages[base+way]
		for w := range calWays {
			if k.ages[base+w] < age {
				k.ages[base+w]++
			}
		}
		k.ages[base+way] = 0
	}
	return hits
}

func (k *calKernel) chain(n int) uint64 {
	x := uint64(1)
	for i := range n {
		x = xorshift(x)*0x9E3779B97F4A7C15 + uint64(i)
	}
	return x
}

func (k *calKernel) chains(n int) uint64 {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := range n {
		a = a*0x9E3779B97F4A7C15 + uint64(i)
		b = (b ^ b>>29) * 0xBF58476D1CE4E5B9
		c = c*0xD6E8FEB86659FD93 ^ uint64(i)
		d = (d ^ d<<7) + a>>3
	}
	return a ^ b ^ c ^ d
}

func (k *calKernel) branches(n int) uint64 {
	x, s, acc := uint64(0x2545F4914F6CDD1D), uint32(0), uint64(0)
	for range n {
		x = xorshift(x)
		i := (uint32(x) ^ s) & (1<<16 - 1)
		v := k.table[i]
		switch {
		case v&1 == 0:
			k.table[i] = v + uint32(x>>32)
			s += v
		case x&6 == 0:
			s ^= v >> 3
			acc++
		default:
			k.table[i] = v ^ s
		}
	}
	return acc + uint64(s)
}

// timeRound runs one round and returns its thread CPU time in seconds. The
// caller must hold its OS thread locked.
func (k *calKernel) timeRound() float64 {
	c0 := threadCPU()
	k.round()
	return (threadCPU() - c0).Seconds()
}

// sample runs a round on cpu right away and then one every calEvery, on a
// thread of its own, until the returned stop is called; stop returns the
// rounds' times once the sampling goroutine has released its thread. The
// kernel must not be used again until stop returns.
func (k *calKernel) sample(cpu int) (stop func() []float64) {
	quit, done := make(chan struct{}), make(chan []float64)
	go func() {
		var rounds []float64
		defer func() { done <- rounds }()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if old, err := setAffinity(onCPU(cpu)); err == nil {
			defer setAffinity(old)
		}
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		rounds = append(rounds, k.timeRound())
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				rounds = append(rounds, k.timeRound())
			}
		}
	}()
	return func() []float64 {
		close(quit)
		return <-done
	}
}

// cpuMask is a CPU affinity mask for sched_setaffinity(2).
type cpuMask [16]uint64

// getAffinity returns the calling thread's CPU affinity.
func getAffinity() (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, e
	}
	return m, nil
}

// setAffinity sets the calling thread's CPU affinity and returns the one it
// replaces. The caller must hold its OS thread locked.
func setAffinity(m cpuMask) (cpuMask, error) {
	old, err := getAffinity()
	if err != nil {
		return old, err
	}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return old, e
	}
	return old, nil
}

// onCPU is the mask of CPU cpu alone.
func onCPU(cpu int) cpuMask {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	return m
}

// firstCPU returns the lowest CPU the calling thread may run on, or 0.
func firstCPU() int {
	m, err := getAffinity()
	if err != nil {
		return 0
	}
	for i, w := range m {
		if w != 0 {
			return 64*i + bits.TrailingZeros64(w)
		}
	}
	return 0
}

// Clock IDs of clock_gettime(2).
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU reads the process CPU clock.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTimeID) }
