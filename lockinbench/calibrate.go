package main

import (
	"math/rand"
	"time"
)

// Host-speed calibration. Besides stealing CPU time, which steal.go
// removes, a shared host slows down and speeds up over minutes in ways
// the kernel does not count, such as neighbours on the same cores or
// memory: every workload of a run moves together, by tens of percent
// within an hour. A fixed loop timed between rounds follows that drift
// (over a dozen rounds its median correlated r ≈ 0.8 with the
// simulator's), so the end-to-end timings are reported in reference-host
// time: measured time × calibrationRef ÷ the run's median loop time.

// calibrationRef is the reference host's loop time: the loop's median
// over 200 runs on the shared 2-vCPU Intel Xeon VM the benchmark was
// written on, with Go 1.24. It is a constant of the benchmark: changing
// it, or the loop, rescales every reported timing.
const calibrationRef = 210 * time.Millisecond

// calibrate runs the calibration loop once. The loop does what the
// simulator's hot path does, in fixed amounts and without lockin code:
// replacing the top of a timer heap, map updates on pooled records and a
// goroutine handoff every 16 steps. It allocates nothing in the loop, so
// no garbage collection of its own, whose cost would depend on the run's
// live heap, lands in its time.
func calibrate() {
	r := rand.New(rand.NewSource(1))
	h := make([]int64, 128) // a binary min-heap of timer deadlines
	for i := range h {
		h[i] = r.Int63n(1000)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	var pool [4096][4]int64
	m := make(map[int64]*[4]int64, len(pool))
	ping, pong := make(chan int64), make(chan int64)
	go func() {
		defer close(pong)
		for v := range ping {
			pong <- v + 1
		}
	}()
	for i := 0; i < 1_200_000; i++ {
		t := h[0]
		rec := &pool[i%len(pool)]
		rec[0] = t
		m[t%int64(len(pool))] = rec
		h[0] = t + r.Int63n(1000)
		siftDown(h, 0)
		if i%16 == 0 {
			ping <- t
			<-pong
		}
	}
	close(ping)
	for range pong {
	}
}

// siftDown restores the heap order of h below index i.
func siftDown(h []int64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
