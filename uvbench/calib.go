package main

import (
	"crypto/sha256"
	"slices"
	"time"
)

// refCalibMS is the host kernel's wall time on two threads on the
// reference host (a 2-vCPU x86-64 container, Go 1.24). Every timing metric is scaled by
// refCalibMS / measured kernel time, so a host that runs the kernel
// 10% slower has its timings divided by 1.1 and the figures read in
// reference-host milliseconds. Changing the kernel or this constant
// changes every normalized figure: do neither in a PR that claims a gain.
const refCalibMS = 5.0

// Kernel sizes. The pointer-chase ring (4 MiB per thread) is larger than
// a typical per-core L2; the chase is most of the kernel's time, so the
// kernel mostly samples memory latency under the other tenants' cache
// and memory traffic, with some integer and hashing throughput.
const (
	chaseWords = 1 << 20 // uint32 ring slots per thread
	chaseSteps = 30_000
	sortWords  = 2048
	hashBytes  = 64 << 10
	hashRounds = 1
)

// hostKernel is the host-speed reference: sort + SHA-256 + a dependent
// pointer chase, run on every thread at once. It shares no code with
// uvllm, allocates nothing per measurement, and warms its buffers before
// the first timing, so its wall time moves only with the host.
type hostKernel struct {
	lanes []kernelLane
	start []chan struct{}
	done  chan struct{}
}

type kernelLane struct {
	ring    []uint32
	sortSrc []uint32
	sortBuf []uint32
	hashBuf []byte
	sink    uint64
}

func newHostKernel(threads int) *hostKernel {
	if threads < 1 {
		threads = 1
	}
	// done is sized to the sends of one run (one per thread), so no
	// worker blocks on it.
	k := &hostKernel{lanes: make([]kernelLane, threads), done: make(chan struct{}, threads)}
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for t := range k.lanes {
		ln := &k.lanes[t]
		// Sattolo's algorithm: one cycle through every slot, so the chase
		// visits the whole ring and no prefetcher can follow it.
		ln.ring = make([]uint32, chaseWords)
		for i := range ln.ring {
			ln.ring[i] = uint32(i)
		}
		for i := len(ln.ring) - 1; i > 0; i-- {
			j := int(rnd() % uint64(i))
			ln.ring[i], ln.ring[j] = ln.ring[j], ln.ring[i]
		}
		ln.sortSrc = make([]uint32, sortWords)
		for i := range ln.sortSrc {
			ln.sortSrc[i] = uint32(rnd())
		}
		ln.sortBuf = make([]uint32, sortWords)
		ln.hashBuf = make([]byte, hashBytes)
		for i := range ln.hashBuf {
			ln.hashBuf[i] = byte(rnd())
		}
	}
	k.start = make([]chan struct{}, threads)
	for t := 0; t < threads; t++ {
		k.start[t] = make(chan struct{})
		go k.worker(t)
	}
	// Warm the buffers and the workers: fault every page in and settle
	// the scheduler before any timing is kept.
	for i := 0; i < 3; i++ {
		k.run()
	}
	return k
}

func (k *hostKernel) worker(t int) {
	ln := &k.lanes[t]
	for range k.start[t] {
		copy(ln.sortBuf, ln.sortSrc)
		slices.Sort(ln.sortBuf)
		var acc uint64
		for r := 0; r < hashRounds; r++ {
			sum := sha256.Sum256(ln.hashBuf)
			acc += uint64(sum[0]) | uint64(sum[31])<<8
		}
		p := uint32(acc) % chaseWords
		for s := 0; s < chaseSteps; s++ {
			p = ln.ring[p]
		}
		ln.sink += uint64(p) + uint64(ln.sortBuf[sortWords/2])
		k.done <- struct{}{}
	}
}

// run executes the kernel once on every thread and returns its wall
// time in milliseconds.
func (k *hostKernel) run() float64 {
	t0 := time.Now()
	for _, c := range k.start {
		c <- struct{}{}
	}
	for range k.start {
		<-k.done
	}
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// stop ends the worker goroutines.
func (k *hostKernel) stop() {
	for _, c := range k.start {
		close(c)
	}
}

// hostScale is the factor that converts a raw timing taken while the
// host ran the kernel in calibMS into reference-host time.
func hostScale(calibMS float64) float64 {
	if calibMS <= 0 {
		return 1
	}
	return refCalibMS / calibMS
}
