// Command dgxbench is the repository's benchmark: it drives one named
// workload against dgxsim in this process and prints, as the last line
// of standard output, one JSON object with the run's correctness, op
// counts and metrics. With -trace 0 the metrics are the end-to-end ones;
// with -trace 1 they are the per-layer ones of a separate traced phase.
//
//	bash dgxbench/run.sh --workload cold-grid --seed 1 --seconds 20 --trace 0
//
// See dgxbench/README.md for the workloads, the metrics and how they map
// onto each other.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// processStart anchors the first set-up: set-up time runs from process
// start to the first timed op.
var processStart = time.Now()

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median, so one slow set-up does not move it.
	setupReps = 5
	// softDeadline cancels the run so that it can shut down cleanly;
	// hardDeadline exits the process even if a layer hangs. Both stay
	// under the 180 s a run may take.
	softDeadline = 160 * time.Second
	hardDeadline = 172 * time.Second
	// maxPhaseTries is how many untraced phases a run measures before it
	// gives up on getting a valid one; retryMargin is the time a run
	// keeps for replays and shutdown when it decides whether to retry.
	maxPhaseTries = 3
	retryMargin   = 20 * time.Second
	// buildDir holds everything a run leaves behind (binary, spans).
	buildDir = ".bench_build"
)

// config is one run's parameters.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	ref     *reference
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure runs one timed phase of length d. tr and ls are nil in an
	// untraced phase.
	measure(ctx context.Context, d time.Duration, tr *tracer, ls *layerStats) (*phaseResult, error)
	// replay calls layers on the phase's own inputs, after a traced
	// phase, to report per-call costs of layers that run inside others.
	replay(ctx context.Context, tr *tracer, ls *layerStats) error
	// paperErr is the paper_err_pct metric, from the workload's own path.
	paperErr(ctx context.Context) (float64, error)
	close()
}

// workloadDef names a workload; README.md says why each is here.
type workloadDef struct {
	name  string
	setup func(ctx context.Context, cfg *config) (instance, error)
}

var workloads = []workloadDef{
	{"cold-grid", setupColdGrid},
	{"serve-mix", setupServeMix},
	{"fleet-replay", setupFleet},
}

// phaseResult is what one timed phase observed.
type phaseResult struct {
	cost      phaseCost
	lats      []time.Duration // one per attempted op
	attempted int64
	failed    int64         // errored, shed, or wrong
	wrong     int64         // answered with an output that failed its check
	sloMiss   int64         // not answered 200 within sloLimit (serve-mix)
	p99       time.Duration // when set, op_p99_ms in place of the p99 of lats
	firstFail string
	extra     map[string]float64 // report-only values
}

func (p *phaseResult) fail(wrong bool, format string, args ...any) {
	p.failed++
	if wrong {
		p.wrong++
	}
	if p.firstFail == "" {
		p.firstFail = fmt.Sprintf(format, args...)
	}
}

func (p *phaseResult) completed() int64 { return p.attempted - p.failed }

func (p *phaseResult) opsPerSecond() float64 {
	return float64(p.completed()) / p.cost.elapsed.Seconds()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("dgxbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames())
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Int("seconds", 20, "length of the timed phase in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: a separate traced phase and per-layer metrics")
		update  = fs.Bool("update-reference", false, "recompute the pinned outputs into "+referenceFile+" and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, softDeadline)
	defer cancel()
	// The hard deadline ends the process from a timer goroutine, which
	// runs even while every other goroutine is stuck in a layer. Exiting
	// releases every socket the process holds; it starts no children.
	hard := time.AfterFunc(hardDeadline, func() {
		fmt.Fprintf(os.Stderr, "dgxbench: hard deadline of %v reached; exiting\n", hardDeadline)
		os.Exit(3)
	})
	defer hard.Stop()

	if *update {
		if err := updateReference(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "dgxbench:", err)
			return 1
		}
		return 0
	}
	def, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "dgxbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgxbench:", err)
		return 1
	}
	cfg := &config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, ref: ref}
	res, report, err := runWorkload(ctx, def, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgxbench:", err)
		return 1
	}
	rb, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgxbench:", err)
		return 1
	}
	fmt.Printf("report %s\n", rb)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgxbench:", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return 0
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runWorkload sets the workload up setupReps times, measures it, checks
// that nothing it opened outlives it, and assembles the result.
func runWorkload(ctx context.Context, def workloadDef, cfg *config) (*result, map[string]any, error) {
	var (
		setups []float64
		inst   instance
	)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		in, err := def.setup(ctx, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			in.close()
			continue
		}
		inst = in
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()

	plain, invalid, err := measureValid(ctx, def.name, inst, cfg)
	if err != nil {
		return nil, nil, err
	}
	var (
		traced *phaseResult
		ls     *layerStats
		tr     *tracer
	)
	if cfg.trace {
		ls, tr = newLayerStats(), newTracer()
		if traced, err = inst.measure(ctx, cfg.seconds, tr, ls); err != nil {
			return nil, nil, err
		}
		if err := inst.replay(ctx, tr, ls); err != nil {
			return nil, nil, err
		}
		ls.set("bench.trace_overhead_pct", 100*(plain.opsPerSecond()-traced.opsPerSecond())/plain.opsPerSecond())
	}
	paper, err := inst.paperErr(ctx)
	if err != nil {
		return nil, nil, err
	}
	inst.close()
	closed = true
	leftover, err := leftovers()
	if err != nil {
		return nil, nil, fmt.Errorf("hygiene check: %w", err)
	}

	report := map[string]any{
		"workload": def.name, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(), "trace": cfg.trace,
		"stamp": stamp(), "setup_s_samples": setups,
		"fail_ratio": float64(plain.failed) / float64(plain.attempted), "wrong": plain.wrong,
		"leftover": leftover, "invalid_phases": invalid,
	}
	for k, v := range plain.extra {
		report[k] = v
	}
	if plain.firstFail != "" {
		report["first_failure"] = plain.firstFail
	}
	if def.name == "serve-mix" {
		report["slo_miss_ratio"] = float64(plain.sloMiss) / float64(plain.attempted)
	}
	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: make(map[string]metric)}
	res.Correct = plain.wrong == 0 && len(leftover) == 0
	if !cfg.trace {
		if err := endToEnd(res.Metrics, plain, median(setups), paper); err != nil {
			return nil, report, err
		}
	} else {
		res.Attempted, res.Failed = traced.attempted, traced.failed
		res.Correct = res.Correct && traced.wrong == 0
		path, err := tr.write(filepath.Join(buildDir, "spans"), fmt.Sprintf("%s-seed%d.jsonl", def.name, cfg.seed))
		if err != nil {
			return nil, report, fmt.Errorf("write spans: %w", err)
		}
		report["spans"] = path
		for k, v := range traced.extra {
			ls.set(k, v)
		}
		perLayer(res.Metrics, ls.values())
	}
	return res, report, nil
}

// measureValid measures the untraced phase until validity accepts it. A
// phase the host made invalid is measured again, up to maxPhaseTries in
// all and only while the rest of the run still fits before the soft
// deadline; invalid lists why each discarded phase was refused.
func measureValid(ctx context.Context, name string, inst instance, cfg *config) (*phaseResult, []string, error) {
	phases := time.Duration(1)
	if cfg.trace {
		phases = 2
	}
	var invalid []string
	for {
		p, err := inst.measure(ctx, cfg.seconds, nil, nil)
		if err != nil {
			return nil, invalid, err
		}
		verr := validity(name, p)
		if verr == nil {
			return p, invalid, nil
		}
		invalid = append(invalid, verr.Error())
		dl, ok := ctx.Deadline()
		if len(invalid) >= maxPhaseTries || (ok && time.Until(dl) < phases*cfg.seconds+retryMargin) {
			return nil, invalid, fmt.Errorf("all %d timed phases invalid; last: %w", len(invalid), verr)
		}
	}
}

// endToEnd fills the untraced metrics.
func endToEnd(m map[string]metric, p *phaseResult, setup, paper float64) error {
	done := p.completed()
	if done == 0 {
		return errors.New("no op completed in the timed phase")
	}
	p50, err := percentile(p.lats, 50)
	if err != nil {
		return err
	}
	p99 := p.p99
	if p99 == 0 {
		if p99, err = percentile(p.lats, 99); err != nil {
			return err
		}
	}
	m["setup_s"] = metric{setup, "s"}
	m["ops_per_s"] = metric{p.opsPerSecond(), "1/s"}
	m["op_p50_ms"] = metric{ms(p50), "ms"}
	m["op_p99_ms"] = metric{ms(p99), "ms"}
	m["cpu_us_per_op"] = metric{us(p.cost.cpu) / float64(done), "us"}
	m["allocs_per_op"] = metric{float64(p.cost.allocs) / float64(done), "count"}
	m["heap_peak_mb"] = metric{float64(p.cost.heapPeak) / (1 << 20), "MiB"}
	m["paper_err_pct"] = metric{paper, "%"}
	return nil
}

// perLayer fills the traced metrics: every metric of layerMetrics, zero
// where the workload does not run that layer.
func perLayer(m map[string]metric, vals map[string]float64) {
	for _, lm := range layerMetrics {
		m[lm.name] = metric{vals[lm.name], lm.unit}
	}
}

// stamp records where and how the run was measured.
func stamp() map[string]any {
	return map[string]any{
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// layerMetric is one per-layer metric the traced run reports.
type layerMetric struct{ name, unit string }

// layerMetrics lists the per-layer metrics in report order.
var layerMetrics = []layerMetric{
	{"core.validate_us", "us"}, {"core.compiles", "count"}, {"core.run_warm_us", "us"},
	{"models.build_ms", "ms"}, {"dnn.plan_us", "us"},
	{"train.new_ms", "ms"}, {"train.window_ms", "ms"}, {"train.window_allocs", "count"},
	{"train.window_iters", "count"}, {"train.extrapolate_us", "us"},
	{"profiler.records", "count"}, {"profiler.record_ns", "ns"},
	{"gpu.kernel_duration_ns", "ns"}, {"topology.route_ns", "ns"}, {"nccl.autoselect_ns", "ns"},
	{"service.encode_us", "us"}, {"service.hit_us", "us"}, {"service.miss_us", "us"},
	{"service.simulate_us", "us"}, {"service.compare_us", "us"}, {"service.sweep_us", "us"},
	{"service.stream_us", "us"}, {"service.cache_hit_ratio", "ratio"}, {"service.cache_lookups", "count"},
	{"service.evictions", "count"}, {"service.coalesced", "count"}, {"service.shed", "count"},
	{"service.queue_wait_us", "us"}, {"service.bytes_per_op", "bytes"},
	{"gateway.hop_us", "us"}, {"gateway.failovers", "count"}, {"gateway.transport_errors", "count"},
	{"gateway.replica_skew", "ratio"},
	{"cluster.trace_gen_ms", "ms"}, {"cluster.simulate_ms", "ms"}, {"cluster.epochs", "count"},
	{"cluster.distinct_services", "count"}, {"cluster.price_est_ms", "ms"}, {"cluster.loop_est_ms", "ms"},
	{"bench.gen_late_p99_ms", "ms"}, {"bench.trace_overhead_pct", "%"},
}
