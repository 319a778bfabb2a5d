package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/service"
	"repro/internal/train"
)

// serve-mix: open-loop Poisson arrivals at serveRate through a gateway
// in front of two service replicas, all in this process over loopback.
const (
	serveRate = 2000.0 // offered requests per second
	sloLimit  = 2 * time.Millisecond
	// genLateBound is how late the generator may run at p99 before the
	// run is invalid: beyond it the benchmark, not the system, would set
	// the latencies it reports.
	genLateBound = 5 * time.Millisecond
	clients      = 2 // client connections: one per CPU of the reference host
	zipfS        = 1.1
	// Replica result caches hold fewer entries than the key set, so
	// hits, misses and evictions all occur in steady state; the queue
	// is deep enough that the offered load sheds nothing.
	replicaCache   = 384
	replicaWorkers = 2
	replicaQueue   = 256
	warmupOps      = 4000
	sweepCells     = 4
	serveWindow    = time.Second // p99 window: about 20 samples beyond each
	opHeader       = "X-Bench-Op"
	ndjson         = "application/x-ndjson"
)

// serveImages are the extrapolation-only dataset sizes each compile key
// is asked at; every one keeps the 4 simulated iterations of the widest
// cell (512 images per iteration), so no request compiles.
var serveImages = []int64{16384, 32768, 65536, 131072, 262144, 524288, 1048576, 2097152}

// serveKeys is the key set: every cold-grid cell at every serveImages
// size, cell-major, so key k is cell k/8 at size k%8.
func serveKeys() []core.Workload {
	var out []core.Workload
	for _, w := range gridCells() {
		for _, img := range serveImages {
			w.Images = img
			out = append(out, w)
		}
	}
	return out
}

// compareKeys is how many leading keys are Figure 3 cells, the only
// ones /v1/compare may ask for: its p2p arm of a hardware-slice cell
// would be a workload outside the key set.
func compareKeys() int { return len(figure3Cells()) * len(serveImages) }

// reportEnvelope mirrors the service's versioned report body, so the
// reference is built from core.Run through the same envelope.
type reportEnvelope struct {
	SchemaVersion int `json:"schemaVersion"`
	*core.Report
}

// simulateBodies builds each key's /v1/simulate reference body (without
// the trailing newline) from core.RunContext.
func simulateBodies(ctx context.Context, keys []core.Workload) ([][]byte, error) {
	out := make([][]byte, len(keys))
	for i, w := range keys {
		r, err := core.RunContext(ctx, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cellLabel(w), err)
		}
		if err := checkReport(r); err != nil {
			return nil, err
		}
		if out[i], err = json.Marshal(reportEnvelope{service.SchemaVersion, r}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func bodiesDigest(bodies [][]byte) string { return digest(bytes.Join(bodies, []byte{'\n'})) }

type reqKind uint8

const (
	kindSimulate reqKind = iota
	kindCompare
	kindSweep
	kindStream
)

var kindPath = [...]string{"/v1/simulate", "/v1/compare", "/v1/sweep", "/v1/sweep"}

// serveOp is one scheduled request.
type serveOp struct {
	due  time.Duration // since the phase start
	kind reqKind
	key  int32
}

// serveSchedule draws a phase's requests from the seed: Poisson arrivals
// at rate over d, Zipf-popular keys (the popularity order itself is a
// seeded permutation), and the endpoint mix of about 85% simulate, 10%
// compare and 5% 4-cell sweeps, half of them NDJSON.
func serveSchedule(seed int64, rate float64, d time.Duration, nKeys, nCompare int) []serveOp {
	rng := rand.New(rand.NewSource(seed))
	rank := rng.Perm(nKeys)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(nKeys-1))
	var ops []serveOp
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return ops
		}
		op := serveOp{due: time.Duration(t * 1e9), key: int32(rank[zipf.Uint64()])}
		switch x := rng.Float64(); {
		case x < 0.85:
			op.kind = kindSimulate
		case x < 0.95:
			op.kind = kindCompare
			op.key %= int32(nCompare)
		case x < 0.975:
			op.kind = kindSweep
		default:
			op.kind = kindStream
		}
		ops = append(ops, op)
	}
}

// serveMix is one set-up serving stack and its inputs.
type serveMix struct {
	cfg    *config
	keys   []core.Workload
	bodies [][]byte // reference /v1/simulate bodies by key
	reqs   [][]byte // /v1/simulate and /v1/compare request bodies by key
	sweeps [][]byte // /v1/sweep request bodies by key
	phases int64    // phases run, to draw each one's schedule afresh

	replicas []*service.Server
	repTS    []*httptest.Server
	gw       *gateway.Gateway
	gwTS     *httptest.Server
	gwClient *http.Transport
	clients  []*http.Client
	rec      atomic.Pointer[hopRecorder]

	// phase inputs kept for the replay
	lastOps []serveOp
	lastObs *hopRecorder
}

func setupServeMix(ctx context.Context, cfg *config) (inst instance, err error) {
	core.ResetCaches()
	s := &serveMix{cfg: cfg, keys: serveKeys()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.bodies, err = simulateBodies(ctx, s.keys); err != nil {
		return nil, err
	}
	if d := bodiesDigest(s.bodies); d != cfg.ref.ServeMix {
		return nil, fmt.Errorf("reference bodies digest %.12s, committed %.12s", d, cfg.ref.ServeMix)
	}
	for i, w := range s.keys {
		b, err := json.Marshal(w)
		if err != nil {
			return nil, err
		}
		s.reqs = append(s.reqs, b)
		sb, err := json.Marshal(service.SweepRequest{Base: w, Images: sweepImages(i)})
		if err != nil {
			return nil, err
		}
		s.sweeps = append(s.sweeps, sb)
	}

	var urls []string
	for i := 0; i < 2; i++ {
		srv := service.NewServer(service.Config{Workers: replicaWorkers, QueueDepth: replicaQueue, CacheSize: replicaCache})
		s.replicas = append(s.replicas, srv)
		ts := httptest.NewServer(s.observe(layerService, srv.Handler()))
		s.repTS = append(s.repTS, ts)
		urls = append(urls, ts.URL)
	}
	s.gwClient = &http.Transport{MaxIdleConnsPerHost: 16}
	if s.gw, err = gateway.New(gateway.Config{Replicas: urls, HealthInterval: time.Second, Client: &http.Client{Transport: s.gwClient}}); err != nil {
		return nil, err
	}
	s.gwTS = httptest.NewServer(s.observe(layerGateway, s.gw.Handler()))
	for i := 0; i < clients; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}

	// Warm-up: the same traffic, closed loop, until the replica caches
	// reach steady state. Every output is checked.
	ops := serveSchedule(cfg.seed^0x5eed, serveRate, warmupOps*time.Second/time.Duration(serveRate), len(s.keys), compareKeys())
	pr := &phaseResult{}
	s.run(ctx, ops, pr, false, nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if pr.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed; first: %s", pr.failed, pr.attempted, pr.firstFail)
	}
	return s, nil
}

// sweepImages is the Images axis of key k's sweep: its own size and the
// next three, so all four cells are keys.
func sweepImages(k int) []int64 {
	j := k % len(serveImages)
	out := make([]int64, sweepCells)
	for i := range out {
		out[i] = serveImages[(j+i)%len(serveImages)]
	}
	return out
}

// sweepKeys lists the keys of key k's sweep in response order.
func sweepKeys(k int) [sweepCells]int {
	base, j := k-k%len(serveImages), k%len(serveImages)
	var out [sweepCells]int
	for i := range out {
		out[i] = base + (j+i)%len(serveImages)
	}
	return out
}

// compareKeysOf returns the p2p and nccl keys /v1/compare of key k
// resolves to (Figure 3 cells alternate p2p, nccl).
func compareKeysOf(k int) (int, int) {
	n := len(serveImages)
	c, j := k/n, k%n
	return (c&^1)*n + j, (c|1)*n + j
}

func (s *serveMix) close() {
	for _, c := range s.clients {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
	if s.gwTS != nil {
		s.gwTS.Close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	if s.gwClient != nil {
		s.gwClient.CloseIdleConnections()
	}
	for _, ts := range s.repTS {
		ts.Close()
	}
	for _, srv := range s.replicas {
		srv.Close()
	}
}

// sleepUntil blocks until t in a nanosleep system call. The runtime's
// own timers wake sub-millisecond sleeps up to a millisecond late, which
// would add that much to every open-loop latency.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// outcome of one request, indexed by op.
type opOutcome struct {
	sent, end time.Time
	lat       time.Duration // from the op's due time to its answer
	bytes     int
}

// run plays ops against the gateway. Open loop: one generator goroutine
// releases each op at its due time to clients workers, and each op's
// latency runs from its due time. Closed loop (warm-up): ops are sent
// back to back. It returns the generator's lateness per op.
func (s *serveMix) run(ctx context.Context, ops []serveOp, pr *phaseResult, open bool, outs []opOutcome) []time.Duration {
	// The channel holds the whole schedule, so the generator never waits
	// for a worker: a stalled system delays answers, not releases.
	ch := make(chan int, len(ops))
	late := make([]time.Duration, len(ops))
	if outs == nil {
		outs = make([]opOutcome, len(ops))
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range ch {
				due := t0.Add(ops[i].due)
				if !open {
					due = time.Now()
				}
				out, reason, wrong := s.do(ctx, client, i, ops[i], &buf)
				out.lat = out.end.Sub(due)
				outs[i] = out
				mu.Lock()
				pr.attempted++
				pr.lats = append(pr.lats, out.lat)
				if reason != "" {
					pr.fail(wrong, "op %d %s %s: %s", i, kindPath[ops[i].kind], cellLabel(s.keys[ops[i].key]), reason)
				}
				if reason != "" || out.end.Sub(due) > sloLimit {
					pr.sloMiss++
				}
				mu.Unlock()
			}
		}(s.clients[c])
	}
	for i, op := range ops {
		if open {
			sleepUntil(t0.Add(op.due))
			late[i] = time.Since(t0.Add(op.due))
		}
		if ctx.Err() != nil {
			break
		}
		ch <- i
	}
	close(ch)
	wg.Wait()
	return late
}

// do sends one request and checks its answer. reason is empty on
// success; wrong marks a 200 whose body differs from the reference.
func (s *serveMix) do(ctx context.Context, client *http.Client, i int, op serveOp, buf *bytes.Buffer) (out opOutcome, reason string, wrong bool) {
	body := s.reqs[op.key]
	if op.kind == kindSweep || op.kind == kindStream {
		body = s.sweeps[op.key]
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.gwTS.URL+kindPath[op.kind], bytes.NewReader(body))
	if err != nil {
		return out, err.Error(), false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, strconv.Itoa(i))
	if op.kind == kindStream {
		req.Header.Set("Accept", ndjson)
	}
	out.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		out.end = time.Now()
		return out, err.Error(), false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	out.end = time.Now()
	out.bytes = buf.Len()
	if err != nil {
		return out, "read body: " + err.Error(), false
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Sprintf("status %d", resp.StatusCode), false
	}
	if err := s.check(op, buf.Bytes()); err != nil {
		return out, err.Error(), true
	}
	return out, "", false
}

// check compares a 200 body with the reference for its key, byte for
// byte, except the NDJSON summary's cacheHits and wallNs, which depend on
// cache state and host time.
func (s *serveMix) check(op serveOp, got []byte) error {
	k := int(op.key)
	var ok bool
	switch op.kind {
	case kindSimulate:
		ok = matchConcat(got, s.bodies[k], nl)
	case kindCompare:
		p, n := compareKeysOf(k)
		ok = matchConcat(got, compareHead, s.reportRaw(p), compareMid, s.reportRaw(n), compareTail, nl)
	case kindSweep:
		ks := sweepKeys(k)
		ok = matchConcat(got, sweepHead, s.bodies[ks[0]], comma, s.bodies[ks[1]], comma, s.bodies[ks[2]], comma, s.bodies[ks[3]], sweepTail, nl)
	case kindStream:
		ks := sweepKeys(k)
		rest, recordsOK := stripPrefixes(got, s.bodies[ks[0]], nl, s.bodies[ks[1]], nl, s.bodies[ks[2]], nl, s.bodies[ks[3]], nl)
		if !recordsOK || len(rest) == 0 || rest[len(rest)-1] != '\n' || bytes.Count(rest, nl) != 1 {
			break
		}
		var sum service.SweepSummary
		if err := json.Unmarshal(rest, &sum); err != nil {
			return fmt.Errorf("summary: %v", err)
		}
		ok = sum.SchemaVersion == service.SchemaVersion && sum.Summary.Count == sweepCells &&
			sum.Summary.CacheHits >= 0 && sum.Summary.CacheHits <= sweepCells && sum.Summary.WallNs > 0
	}
	if !ok {
		return fmt.Errorf("body of %d bytes differs from the reference", len(got))
	}
	return nil
}

// reportRaw is the bare report JSON inside key k's envelope.
func (s *serveMix) reportRaw(k int) []byte { return s.bodies[k][len(envelopePrefix):] }

var (
	nl             = []byte("\n")
	comma          = []byte(",")
	envelopePrefix = []byte(fmt.Sprintf(`{"schemaVersion":%d,`, service.SchemaVersion))
	compareHead    = []byte(fmt.Sprintf(`{"schemaVersion":%d,"results":[{"method":"p2p","report":{`, service.SchemaVersion))
	compareMid     = []byte(`},{"method":"nccl","report":{`)
	compareTail    = []byte(`}]}`)
	sweepHead      = []byte(fmt.Sprintf(`{"schemaVersion":%d,"count":%d,"results":[`, service.SchemaVersion, sweepCells))
	sweepTail      = []byte(`]}`)
)

// stripPrefixes removes parts from the front of got, in order, and
// returns the rest; ok is false if got does not start with them.
func stripPrefixes(got []byte, parts ...[]byte) (rest []byte, ok bool) {
	for _, p := range parts {
		if !bytes.HasPrefix(got, p) {
			return nil, false
		}
		got = got[len(p):]
	}
	return got, true
}

// matchConcat reports whether got is exactly the concatenation of parts.
func matchConcat(got []byte, parts ...[]byte) bool {
	rest, ok := stripPrefixes(got, parts...)
	return ok && len(rest) == 0
}

// counters is a snapshot of what the program exports about the stack.
type counters struct {
	cache    []service.CacheStats
	pool     []service.PoolStats
	replica  []map[string]float64 // /metrics of each replica
	gw       map[string]float64   // /metrics of the gateway
	compiles uint64
}

func (s *serveMix) snapshot(ctx context.Context) (counters, error) {
	c := counters{compiles: core.CompileCount()}
	for i, srv := range s.replicas {
		c.cache = append(c.cache, srv.CacheStats())
		c.pool = append(c.pool, srv.PoolStats())
		m, err := scrape(ctx, s.repTS[i].URL+"/metrics")
		if err != nil {
			return c, err
		}
		c.replica = append(c.replica, m)
	}
	var err error
	c.gw, err = scrape(ctx, s.gwTS.URL+"/metrics")
	return c, err
}

// scrape reads a plain-text metrics page into name{labels} -> value.
func scrape(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// counterDeltas turns two snapshots into the per-layer counters of the
// phase between them.
func counterDeltas(a, b counters, ops int64, bytes int64) map[string]float64 {
	out := make(map[string]float64)
	var hits, misses, evictions, wait, tasks float64
	for i := range a.cache {
		hits += float64(b.cache[i].Hits - a.cache[i].Hits)
		misses += float64(b.cache[i].Misses - a.cache[i].Misses)
		evictions += float64(b.cache[i].Evictions - a.cache[i].Evictions)
		wait += float64(b.pool[i].QueueWait - a.pool[i].QueueWait)
		tasks += float64(b.pool[i].Completed - a.pool[i].Completed)
		out["service.coalesced"] += b.replica[i]["dgxsimd_coalesced_total"] - a.replica[i]["dgxsimd_coalesced_total"]
		out["service.shed"] += b.replica[i]["dgxsimd_shed_total"] - a.replica[i]["dgxsimd_shed_total"]
	}
	if hits+misses > 0 {
		out["service.cache_hit_ratio"] = hits / (hits + misses)
	}
	out["service.cache_lookups"] = hits + misses
	out["service.evictions"] = evictions
	if tasks > 0 {
		out["service.queue_wait_us"] = wait / tasks / 1e3
	}
	if ops > 0 {
		out["service.bytes_per_op"] = float64(bytes) / float64(ops)
	}
	out["gateway.failovers"] = b.gw["dgxsimgw_failovers_total"] - a.gw["dgxsimgw_failovers_total"]
	minF, maxF := -1.0, 0.0
	for name, v := range b.gw {
		switch {
		case strings.HasPrefix(name, "dgxsimgw_replica_transport_errors_total"):
			out["gateway.transport_errors"] += v - a.gw[name]
		case strings.HasPrefix(name, "dgxsimgw_replica_requests_total"):
			f := v - a.gw[name]
			if minF < 0 || f < minF {
				minF = f
			}
			if f > maxF {
				maxF = f
			}
		}
	}
	if minF > 0 {
		out["gateway.replica_skew"] = maxF / minF
	}
	out["core.compiles"] = float64(b.compiles - a.compiles)
	return out
}

func (s *serveMix) measure(ctx context.Context, d time.Duration, tr *tracer, ls *layerStats) (*phaseResult, error) {
	s.phases++
	ops := serveSchedule(s.cfg.seed+s.phases, serveRate, d, len(s.keys), compareKeys())
	if len(ops) == 0 {
		return nil, fmt.Errorf("empty schedule")
	}
	var obs *hopRecorder
	if tr != nil {
		obs = newHopRecorder()
		s.rec.Store(obs)
		defer s.rec.Store(nil)
	}
	before, err := s.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	pr := &phaseResult{}
	outs := make([]opOutcome, len(ops))
	var late []time.Duration
	pr.cost, _ = timed(d, func(time.Time) error {
		late = s.run(ctx, ops, pr, true, outs)
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.rec.Store(nil)
	after, err := s.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	var bytesRead int64
	for _, o := range outs {
		bytesRead += int64(o.bytes)
	}
	pr.extra = counterDeltas(before, after, pr.completed(), bytesRead)
	pr.extra["offered_rate"] = serveRate
	// Host stalls (an idle vCPU waking late, steal time) hit every op due
	// in the stall at once, so one bad second can set a whole run's p99.
	// The reported p99s are the median over one-second windows of due
	// time; the whole-run values go to the report line.
	at := make([]time.Duration, 0, len(ops))
	lats := make([]time.Duration, 0, len(ops))
	lates := make([]time.Duration, 0, len(ops))
	for i, o := range outs {
		if !o.sent.IsZero() {
			at, lats, lates = append(at, ops[i].due), append(lats, o.lat), append(lates, late[i])
		}
	}
	if pr.p99, err = windowedP99(at, lats, serveWindow); err != nil {
		return nil, err
	}
	lateP99, err := windowedP99(at, lates, serveWindow)
	if err != nil {
		return nil, err
	}
	pr.extra["bench.gen_late_p99_ms"] = ms(lateP99)
	for name, xs := range map[string][]time.Duration{"whole_run_op_p99_ms": lats, "whole_run_gen_late_p99_ms": lates} {
		if p, err := percentile(xs, 99); err == nil {
			pr.extra[name] = ms(p)
		}
	}
	if tr != nil {
		s.lastOps, s.lastObs = ops, obs
		obs.summarize(ops, outs, tr, ls)
	}
	return pr, nil
}

// validity rejects a run whose measurement cannot be trusted.
func validity(workload string, p *phaseResult) error {
	if workload != "serve-mix" {
		return nil
	}
	if late := p.extra["bench.gen_late_p99_ms"]; late > ms(genLateBound) {
		return fmt.Errorf("invalid run: the generator ran %.3f ms late at p99 (bound %v); the host, not the system, set the latencies", late, genLateBound)
	}
	return nil
}

func (s *serveMix) paperErr(ctx context.Context) (float64, error) {
	return paperErrPct(func(w core.Workload) (*core.Report, error) { return core.RunContext(ctx, w) })
}

// replay times the layers inside a request on the traced phase's own
// ops: validation, a warm core run, extrapolation and report encoding.
func (s *serveMix) replay(ctx context.Context, tr *tracer, ls *layerStats) error {
	const maxReplay = 3000
	windows := make(map[string]*train.Window)
	for i, op := range s.lastOps {
		if i >= maxReplay {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		w := s.keys[op.key]
		rootStart := time.Now()
		ls.add("core.validate_us", us(perCall(func() {
			_ = w.Validate()
			_ = w.Normalize().Fingerprint()
		})))
		var rep *core.Report
		var err error
		ls.add("core.run_warm_us", us(perCall(func() { rep, err = core.RunContext(ctx, w) })))
		if err != nil {
			return err
		}
		if s.lastObs.miss(int64(i)) {
			n := w.Normalize()
			ck := n.CompileFingerprint()
			win := windows[ck]
			if win == nil {
				cfg, err := trainConfig(n)
				if err != nil {
					return err
				}
				t, err := train.New(cfg)
				if err != nil {
					return err
				}
				if win, err = t.SimulateWindow(); err != nil {
					return err
				}
				windows[ck] = win
			}
			ls.add("train.extrapolate_us", us(perCall(func() { _, err = win.Extrapolate(n.Images) })))
			if err != nil {
				return err
			}
			ls.add("service.encode_us", us(perCall(func() {
				_, err = json.Marshal(reportEnvelope{service.SchemaVersion, rep})
			})))
			if err != nil {
				return err
			}
		}
		tr.add(replayOps+int64(i), -1, "replay "+cellLabel(w), rootStart, time.Now())
	}
	return nil
}

// Layers whose ServeHTTP the benchmark wraps.
const (
	layerGateway = "gateway"
	layerService = "service"
)

// handlerObs is one ServeHTTP call seen by a wrapper.
type handlerObs struct {
	layer, path, cache string
	stream             bool
	start, end         time.Time
}

// hopRecorder collects the traced phase's ServeHTTP calls by op; the
// gateway forwards the op header, so both hops of an op match up.
type hopRecorder struct {
	mu  sync.Mutex
	obs map[int64][]handlerObs
}

func newHopRecorder() *hopRecorder { return &hopRecorder{obs: make(map[int64][]handlerObs)} }

// observe wraps a layer's handler; it records only while a traced phase
// has installed a recorder.
func (s *serveMix) observe(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := s.rec.Load()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		o := handlerObs{
			layer: layer, path: r.URL.Path, cache: w.Header().Get("X-Cache"),
			stream: strings.Contains(r.Header.Get("Accept"), ndjson), start: start, end: time.Now(),
		}
		rec.mu.Lock()
		rec.obs[op] = append(rec.obs[op], o)
		rec.mu.Unlock()
	})
}

// miss reports whether op's replica answered a /v1/simulate from a
// fresh simulation.
func (h *hopRecorder) miss(op int64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, o := range h.obs[op] {
		if o.layer == layerService && o.cache == "MISS" {
			return true
		}
	}
	return false
}

// summarize turns the recorded calls into spans and per-layer samples.
func (h *hopRecorder) summarize(ops []serveOp, outs []opOutcome, tr *tracer, ls *layerStats) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, op := range ops {
		out := outs[i]
		if out.sent.IsZero() {
			continue
		}
		id := int64(i)
		root := tr.add(id, -1, "serve-mix.op "+kindPath[op.kind], out.sent, out.end)
		var gwSpan int32 = root
		var gw, rep time.Duration
		for _, o := range h.obs[id] {
			if o.layer == layerGateway {
				gw += o.end.Sub(o.start)
				gwSpan = tr.add(id, root, "gateway.ServeHTTP", o.start, o.end)
			}
		}
		for _, o := range h.obs[id] {
			if o.layer != layerService {
				continue
			}
			d := o.end.Sub(o.start)
			rep += d
			tr.add(id, gwSpan, "service.ServeHTTP "+o.path, o.start, o.end)
			switch {
			case op.kind == kindSimulate && o.cache == "HIT":
				ls.add("service.hit_us", us(d))
			case op.kind == kindSimulate && o.cache == "MISS":
				ls.add("service.miss_us", us(d))
			}
			switch op.kind {
			case kindSimulate:
				ls.add("service.simulate_us", us(d))
			case kindCompare:
				ls.add("service.compare_us", us(d))
			case kindSweep:
				ls.add("service.sweep_us", us(d))
			case kindStream:
				ls.add("service.stream_us", us(d))
			}
		}
		if gw > 0 && rep > 0 {
			ls.add("gateway.hop_us", us(gw-rep))
		}
	}
}
