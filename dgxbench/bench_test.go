package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

func mustReference(t *testing.T) *reference {
	t.Helper()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestGeneratorsAreDeterministicInTheSeed(t *testing.T) {
	order := func(seed int64) [][]int {
		rng := rand.New(rand.NewSource(seed))
		return [][]int{cellOrder(rng, 160), cellOrder(rng, 160)}
	}
	if !reflect.DeepEqual(order(1), order(1)) {
		t.Error("cold-grid: the same seed gave different cell orders")
	}
	if reflect.DeepEqual(order(1), order(2)) {
		t.Error("cold-grid: different seeds gave the same cell orders")
	}
	if o := order(1); reflect.DeepEqual(o[0], o[1]) {
		t.Error("cold-grid: two passes of one run visited cells in the same order")
	}

	sched := func(seed int64) []serveOp {
		return serveSchedule(seed, serveRate, 2*time.Second, len(serveKeys()), compareKeys())
	}
	a, b, c := sched(7), sched(7), sched(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("serve-mix: the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("serve-mix: different seeds gave the same schedule")
	}
	kinds := map[reqKind]int{}
	for i, op := range a {
		kinds[op.kind]++
		if i > 0 && op.due < a[i-1].due {
			t.Fatalf("serve-mix: due times go backwards at op %d", i)
		}
		if op.kind == kindCompare && int(op.key) >= compareKeys() {
			t.Fatalf("serve-mix: compare op %d asks for hardware-slice key %d", i, op.key)
		}
	}
	if n, want := float64(len(a)), 2*serveRate; n < 0.9*want || n > 1.1*want {
		t.Errorf("serve-mix: %v arrivals in 2 s at %v/s", n, serveRate)
	}
	if kinds[kindSimulate] < len(a)*80/100 || kinds[kindCompare] == 0 || kinds[kindSweep] == 0 || kinds[kindStream] == 0 {
		t.Errorf("serve-mix: endpoint mix %v", kinds)
	}

	if !reflect.DeepEqual(fleetSeeds(3), fleetSeeds(3)) {
		t.Error("fleet-replay: the same seed gave different op seeds")
	}
	if reflect.DeepEqual(fleetSeeds(3), fleetSeeds(4)) {
		t.Error("fleet-replay: different seeds gave the same op seeds")
	}
	ref := mustReference(t)
	for _, s := range fleetSeeds(3) {
		if ref.Fleet[strconv.FormatInt(s, 10)] == "" {
			t.Fatalf("fleet-replay: op seed %d has no committed reference", s)
		}
	}
}

func TestPercentileIsNearestRankAndRefusesThinTails(t *testing.T) {
	seq := func(n int) []time.Duration {
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = time.Duration(n - i) // reversed: the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want time.Duration
		ok   bool
	}{
		{100, 50, 50, true},
		{101, 50, 51, true},
		{minP99Samples, 99, 990, true},
		{minP99Samples - 1, 99, 0, false}, // rank 990: 9 samples beyond
		{100, 99, 0, false},
		{20, 50, 10, true},
		{19, 50, 0, false}, // rank 10: 9 beyond
		{0, 50, 0, false},
	} {
		got, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v, ok=%v", c.p, c.n, got, err, c.want, c.ok)
		}
	}
}

// fakeServe is a serve-mix instance whose gateway is a stub answering
// with fixed statuses and bodies.
func fakeServe(t *testing.T, handler http.HandlerFunc) *serveMix {
	t.Helper()
	keys := serveKeys()[:8]
	bodies, err := simulateBodies(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	s := &serveMix{keys: keys, bodies: bodies}
	for _, w := range keys {
		b, _ := json.Marshal(w)
		s.reqs, s.sweeps = append(s.reqs, b), append(s.sweeps, b)
	}
	s.gwTS = httptest.NewServer(handler)
	for i := 0; i < clients; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{}})
	}
	t.Cleanup(s.close)
	return s
}

func TestFailuresCountShedsBadGatewaysAndWrongBodies(t *testing.T) {
	var s *serveMix
	s = fakeServe(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.Header.Get(opHeader) {
		case "0":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case "1":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
		case "2":
			w.WriteHeader(http.StatusBadGateway)
		case "3": // a 200 with one byte changed
			b := append([]byte(nil), s.bodies[0]...)
			b[len(b)/2] ^= 1
			w.Write(append(b, '\n'))
		default:
			w.Write(append(append([]byte(nil), s.bodies[0]...), '\n'))
		}
	})
	ops := make([]serveOp, 6)
	pr := &phaseResult{}
	s.run(context.Background(), ops, pr, false, nil)
	if pr.attempted != 6 || pr.failed != 4 || pr.wrong != 1 {
		t.Fatalf("attempted %d failed %d wrong %d; want 6, 4 (429, 503, 502, wrong body), 1", pr.attempted, pr.failed, pr.wrong)
	}
	if pr.sloMiss < 4 {
		t.Errorf("%d SLO misses; every failure must count as one", pr.sloMiss)
	}
}

func TestPaperErrorReproducesTheAnchors(t *testing.T) {
	pairs, err := paperAnchors(func(w core.Workload) (*core.Report, error) { return core.Run(w) })
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 12 {
		t.Fatalf("%d anchors, want 12", len(pairs))
	}
	if got := fmt.Sprintf("%.2f", meanAbsRelErrPct(pairs)); got != "8.51" {
		t.Errorf("paper_err_pct = %s%%, want 8.51%%", got)
	}
}

// flipDigit changes one digit of b in place, at or after byte from, so
// the JSON stays well formed.
func flipDigit(t *testing.T, b []byte, from int) {
	t.Helper()
	for i := from; i < len(b); i++ {
		if b[i] >= '1' && b[i] <= '8' {
			b[i]++
			return
		}
	}
	t.Fatal("no digit to corrupt")
}

func TestCorruptedOutputsAreCaught(t *testing.T) {
	ref := mustReference(t)

	t.Run("cold-grid", func(t *testing.T) {
		g := &coldGrid{cfg: &config{ref: ref}}
		w := figure3Cells()[5]
		rep, err := core.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.check(cellLabel(w), rep); err != nil {
			t.Fatalf("unmodified report rejected: %v", err)
		}
		b, _ := json.Marshal(rep)
		flipDigit(t, b, bytes.Index(b, []byte(`"fpbpNs"`)))
		var bad core.Report
		if err := json.Unmarshal(b, &bad); err != nil {
			t.Fatal(err)
		}
		if g.check(cellLabel(w), &bad) == nil {
			t.Error("a report with one byte changed passed the check")
		}
	})

	t.Run("serve-mix", func(t *testing.T) {
		keys := serveKeys()
		bodies, err := simulateBodies(context.Background(), keys[:8*2])
		if err != nil {
			t.Fatal(err)
		}
		s := &serveMix{keys: keys, bodies: bodies}
		p, n := compareKeysOf(3)
		ks := sweepKeys(3)
		sweepBody := append(append([]byte(nil), sweepHead...), bytes.Join([][]byte{bodies[ks[0]], bodies[ks[1]], bodies[ks[2]], bodies[ks[3]]}, comma)...)
		var stream []byte
		for _, k := range ks {
			stream = append(append(stream, bodies[k]...), '\n')
		}
		cases := []struct {
			kind reqKind
			body []byte
		}{
			{kindSimulate, append(append([]byte(nil), bodies[3]...), '\n')},
			{kindCompare, bytes.Join([][]byte{compareHead, bodies[p][len(envelopePrefix):], compareMid, bodies[n][len(envelopePrefix):], compareTail, nl}, nil)},
			{kindSweep, append(append(sweepBody, sweepTail...), '\n')},
			{kindStream, append(stream, []byte(`{"schemaVersion":1,"summary":{"count":4,"cacheHits":2,"wallNs":12345}}`+"\n")...)},
		}
		for _, c := range cases {
			op := serveOp{kind: c.kind, key: 3}
			if err := s.check(op, c.body); err != nil {
				t.Fatalf("%s: reference body rejected: %v", kindPath[c.kind], err)
			}
			for _, at := range []int{0, len(c.body) / 3, len(c.body) - 2} {
				bad := append([]byte(nil), c.body...)
				bad[at] ^= 0x20
				if s.check(op, bad) == nil {
					t.Errorf("%s: body with byte %d changed passed the check", kindPath[c.kind], at)
				}
			}
		}
	})

	t.Run("fleet-replay", func(t *testing.T) {
		seed := fleetPool()[0]
		res, err := cluster.Simulate(context.Background(), fleetSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Fleet[strconv.FormatInt(seed, 10)]
		if d, _ := fleetDigest(res); d != want {
			t.Fatalf("unmodified result digest %.12s, reference %.12s", d, want)
		}
		b, _ := json.Marshal(res)
		flipDigit(t, b, bytes.Index(b, []byte(`"jct"`)))
		var bad cluster.Result
		if err := json.Unmarshal(b, &bad); err != nil {
			t.Fatal(err)
		}
		if d, _ := fleetDigest(&bad); d == want {
			t.Error("a result with one byte changed matched the reference")
		}
	})
}

func TestLeftoversFindsAnOpenListener(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	left, err := leftovers()
	if err != nil {
		t.Fatal(err)
	}
	if len(left) == 0 {
		t.Error("an open test server was not reported")
	}
	ts.Close()
	if left, err = leftovers(); err != nil || len(left) != 0 {
		t.Errorf("after Close: %v, %v", left, err)
	}
}

// lateSeq is an instance whose untraced phases report the given
// generator lateness, one phase after another.
type lateSeq struct {
	instance
	late     []float64
	measured int
}

func (l *lateSeq) measure(context.Context, time.Duration, *tracer, *layerStats) (*phaseResult, error) {
	p := &phaseResult{extra: map[string]float64{"bench.gen_late_p99_ms": l.late[l.measured]}}
	l.measured++
	return p, nil
}

func TestInvalidPhasesAreMeasuredAgain(t *testing.T) {
	over, under := ms(genLateBound)+1, ms(genLateBound)-1
	cfg := &config{seconds: time.Second}
	l := &lateSeq{late: []float64{over, over, under}}
	p, invalid, err := measureValid(context.Background(), "serve-mix", l, cfg)
	if err != nil || len(invalid) != 2 || p.extra["bench.gen_late_p99_ms"] != under {
		t.Errorf("two invalid phases then a valid one: %v invalid, err %v", invalid, err)
	}
	l = &lateSeq{late: []float64{over, over, over, under}}
	if _, _, err := measureValid(context.Background(), "serve-mix", l, cfg); err == nil || l.measured != maxPhaseTries {
		t.Errorf("after %d invalid phases: err %v, measured %d", maxPhaseTries, err, l.measured)
	}
	ctx, cancel := context.WithTimeout(context.Background(), retryMargin)
	defer cancel()
	l = &lateSeq{late: []float64{over, under}}
	if _, _, err := measureValid(ctx, "serve-mix", l, cfg); err == nil || l.measured != 1 {
		t.Errorf("a retry that does not fit before the deadline was measured: err %v, measured %d", err, l.measured)
	}
}
