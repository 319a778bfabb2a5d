package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// Process counters the end-to-end metrics derive from: CPU from
// getrusage, heap allocations and live heap from runtime/metrics.
const (
	allocsMetric = "/gc/heap/allocs:objects"
	liveMetric   = "/gc/heap/live:bytes"
)

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func heapAllocs() uint64 { return readUint64(allocsMetric) }

// phase measures one timed phase: host time, process CPU, heap
// allocations and the peak live heap, sampled every heapEvery by a
// goroutine that end stops and waits for.
type phase struct {
	start   time.Time
	cpu0    time.Duration
	allocs0 uint64

	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak map[int64]uint64 // largest live heap seen per heapWindow
}

// The live heap is read every heapEvery. Its peak is taken per
// heapWindow and the median of those peaks is reported: the largest
// live heap of a whole run depends on where one collection happened to
// fall, a typical window's peak does not.
const (
	heapEvery  = 10 * time.Millisecond
	heapWindow = time.Second
)

func beginPhase() *phase {
	p := &phase{stop: make(chan struct{}), done: make(chan struct{}), peak: make(map[int64]uint64)}
	p.cpu0, p.allocs0 = processCPU(), heapAllocs()
	p.start = time.Now()
	p.observeHeap()
	go func() {
		defer close(p.done)
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.observeHeap()
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

func (p *phase) observeHeap() {
	v := readUint64(liveMetric)
	w := int64(time.Since(p.start) / heapWindow)
	p.mu.Lock()
	if v > p.peak[w] {
		p.peak[w] = v
	}
	p.mu.Unlock()
}

// phaseCost is what one timed phase consumed.
type phaseCost struct {
	elapsed  time.Duration
	cpu      time.Duration
	allocs   uint64
	heapPeak uint64 // bytes: the median over heapWindows of each one's peak
}

// end stops the phase and its sampler.
func (p *phase) end() phaseCost {
	elapsed := time.Since(p.start)
	c := phaseCost{elapsed: elapsed, cpu: processCPU() - p.cpu0, allocs: heapAllocs() - p.allocs0}
	close(p.stop)
	<-p.done
	p.observeHeap()
	peaks := make([]float64, 0, len(p.peak))
	for _, v := range p.peak {
		peaks = append(peaks, float64(v))
	}
	c.heapPeak = uint64(median(peaks))
	return c
}
