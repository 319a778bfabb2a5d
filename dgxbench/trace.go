package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call. Spans of one op share Op; Parent is the ID of
// the enclosing span, or -1 for the op's root.
type span struct {
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// maxSpans bounds the in-memory span buffer; spans past it are counted,
// not kept.
const maxSpans = 1 << 19

// tracer keeps a traced run's spans in memory until the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	next    map[int64]int32
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), next: make(map[int64]int32)} }

// add records a finished span and returns its ID (to parent later spans).
func (t *tracer) add(op int64, parent int32, name string, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.next[op]
	t.next[op] = id + 1
	if len(t.spans) >= maxSpans {
		t.dropped++
		return id
	}
	t.spans = append(t.spans, span{
		Op: op, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// write stores the spans as JSON lines under dir, one file per run.
func (t *tracer) write(dir, name string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "dgxbench: %d spans past the %d-span buffer were dropped\n", dropped, maxSpans)
	}
	return path, nil
}

// layerStats collects per-op samples of per-layer metrics; each metric
// reports the median of its samples.
type layerStats struct {
	mu      sync.Mutex
	samples map[string][]float64
	fixed   map[string]float64
}

func newLayerStats() *layerStats {
	return &layerStats{samples: make(map[string][]float64), fixed: make(map[string]float64)}
}

func (l *layerStats) add(name string, v float64) {
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

// set records a metric measured once per run (a counter delta, a ratio).
func (l *layerStats) set(name string, v float64) {
	l.mu.Lock()
	l.fixed[name] = v
	l.mu.Unlock()
}

func (l *layerStats) values() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]float64, len(l.samples)+len(l.fixed))
	for k, xs := range l.samples {
		out[k] = median(xs)
	}
	for k, v := range l.fixed {
		out[k] = v
	}
	return out
}

// perCall times fn, repeating it until at least minReplay has passed so
// that calls far shorter than the clock's resolution still measure, and
// returns the mean time of one call.
func perCall(fn func()) time.Duration {
	const minReplay = 50 * time.Microsecond
	start := time.Now()
	n := 0
	for {
		fn()
		n++
		if d := time.Since(start); d >= minReplay {
			return d / time.Duration(n)
		}
	}
}
