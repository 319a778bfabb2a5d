package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/models"
	"repro/internal/nccl"
	"repro/internal/profiler"
	"repro/internal/topology"
	"repro/internal/train"
	"repro/internal/units"
)

// coldGrid runs the Figure 3 grid and the hardware slice through
// core.RunContext, one closed-loop client, every pass after
// core.ResetCaches: each op (one cell) compiles its window from scratch.
type coldGrid struct {
	cfg   *config
	cells []core.Workload
	rng   *rand.Rand
	// last holds the reports of the latest complete pass by cell label;
	// the paper anchors are read from it.
	last map[string]*core.Report
}

func setupColdGrid(ctx context.Context, cfg *config) (instance, error) {
	g := &coldGrid{cfg: cfg, cells: gridCells(), rng: rand.New(rand.NewSource(cfg.seed))}
	// One checked pass before timing: it faults the heap and the code in,
	// and proves the program answers every cell correctly.
	pr := &phaseResult{}
	if _, err := g.pass(ctx, time.Time{}, nil, nil, pr); err != nil {
		return nil, err
	}
	if pr.failed > 0 {
		return nil, fmt.Errorf("warm-up pass: %d of %d cells failed; first: %s", pr.failed, pr.attempted, pr.firstFail)
	}
	return g, nil
}

// cellOrder is one pass's seed-shuffled visiting order.
func cellOrder(rng *rand.Rand, n int) []int { return rng.Perm(n) }

// pass runs the cells once in shuffled order after dropping every
// memoized artifact. It stops early, returning false, at the deadline
// (a zero deadline never stops).
func (g *coldGrid) pass(ctx context.Context, deadline time.Time, tr *tracer, ls *layerStats, pr *phaseResult) (bool, error) {
	order := cellOrder(g.rng, len(g.cells))
	core.ResetCaches()
	c0 := core.CompileCount()
	reports := make(map[string]*core.Report, len(order))
	for _, i := range order {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return false, nil
		}
		w := g.cells[i]
		label := cellLabel(w)
		op := pr.attempted
		pr.attempted++
		start := time.Now()
		rep, err := core.RunContext(ctx, w)
		end := time.Now()
		pr.lats = append(pr.lats, end.Sub(start))
		if err != nil {
			if ctx.Err() != nil {
				return false, ctx.Err()
			}
			pr.fail(false, "%s: %v", label, err)
			continue
		}
		if err := g.check(label, rep); err != nil {
			pr.fail(true, "%v", err)
			continue
		}
		if tr != nil {
			root := tr.add(op, -1, "cold-grid.cell "+label, start, time.Now())
			tr.add(op, root, "core.RunContext", start, end)
		}
		reports[label] = rep
	}
	if ls != nil {
		ls.add("core.compiles", float64(core.CompileCount()-c0))
	}
	g.last = reports
	return true, nil
}

// check holds a report to its invariants and to the committed digest.
func (g *coldGrid) check(label string, rep *core.Report) error {
	if err := checkReport(rep); err != nil {
		return err
	}
	d, err := reportDigest(rep)
	if err != nil {
		return fmt.Errorf("%s: encode report: %w", label, err)
	}
	if want := g.cfg.ref.ColdGrid[label]; d != want {
		return fmt.Errorf("%s: report digest %.12s, reference %.12s", label, d, want)
	}
	return nil
}

func (g *coldGrid) measure(ctx context.Context, d time.Duration, tr *tracer, ls *layerStats) (*phaseResult, error) {
	pr := &phaseResult{}
	cost, err := timed(d, func(deadline time.Time) error {
		for time.Now().Before(deadline) {
			if _, err := g.pass(ctx, deadline, tr, ls, pr); err != nil {
				return err
			}
		}
		return nil
	})
	pr.cost = cost
	return pr, err
}

func (g *coldGrid) paperErr(ctx context.Context) (float64, error) {
	return paperErrPct(func(w core.Workload) (*core.Report, error) {
		if r, ok := g.last[cellLabel(w)]; ok {
			return r, nil
		}
		return nil, fmt.Errorf("%s: not in the last complete pass", cellLabel(w))
	})
}

func (g *coldGrid) close() {}

// replayOps numbers replayed ops apart from the timed phase's ops.
const replayOps = 1 << 40

// replay calls each compile layer's public function on every cell's own
// inputs, outside any timed op.
func (g *coldGrid) replay(ctx context.Context, tr *tracer, ls *layerStats) error {
	core.ResetCaches()
	for i, m := range gridModels {
		start := time.Now()
		if _, err := models.ByName(m); err != nil {
			return err
		}
		end := time.Now()
		ls.add("models.build_ms", ms(end.Sub(start)))
		tr.add(replayOps+int64(i), -1, "models.ByName "+m, start, end)
	}
	for i, w := range g.cells {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := replayCell(replayOps+int64(len(gridModels)+i), w, tr, ls); err != nil {
			return fmt.Errorf("replay %s: %w", cellLabel(w), err)
		}
	}
	return nil
}

// replayCell times the compile layers one cell passes through.
func replayCell(op int64, w core.Workload, tr *tracer, ls *layerStats) error {
	n := w.Normalize()
	rootStart := time.Now()
	type call struct {
		name       string
		start, end time.Time
	}
	var calls []call
	timeIt := func(name string, fn func()) time.Duration {
		start := time.Now()
		fn()
		end := time.Now()
		calls = append(calls, call{name, start, end})
		return end.Sub(start)
	}

	ls.add("core.validate_us", us(perCall(func() {
		_ = w.Validate()
		_ = w.Normalize().Fingerprint()
	})))

	net := freshModel(n.Model).Net
	opts := dnn.PlanOptions{TensorCores: true}
	var (
		fwd []gpu.KernelCost
		bwd []dnn.BackwardStep
	)
	ls.add("dnn.plan_us", us(timeIt("dnn.Plan", func() {
		fwd = net.ForwardPlan(n.Batch, opts)
		bwd = net.BackwardPlan(n.Batch, opts)
	})))

	cfg, err := trainConfig(n)
	if err != nil {
		return err
	}
	var trainer *train.Trainer
	ls.add("train.new_ms", ms(timeIt("train.New", func() { trainer, err = train.New(cfg) })))
	if err != nil {
		return err
	}
	var (
		win    *train.Window
		m0, m1 runtime.MemStats
	)
	// ReadMemStats flushes every P's allocation cache, so the count is
	// exact, unlike a runtime/metrics delta over one short call.
	runtime.ReadMemStats(&m0)
	ls.add("train.window_ms", ms(timeIt("train.SimulateWindow", func() { win, err = trainer.SimulateWindow() })))
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	ls.add("train.window_allocs", float64(m1.Mallocs-m0.Mallocs))
	ls.add("train.window_iters", float64(win.NSim()))

	// A second compile keeps every interval, so the profiler's input
	// can be replayed into a fresh profile.
	dcfg := cfg
	dcfg.DetailIntervals = 1 << 22
	dt, err := train.New(dcfg)
	if err != nil {
		return err
	}
	dwin, err := dt.SimulateWindow()
	if err != nil {
		return err
	}
	res, err := dwin.Extrapolate(n.Images)
	if err != nil {
		return err
	}
	if res.Profile.Dropped() > 0 {
		return fmt.Errorf("profile dropped %d intervals", res.Profile.Dropped())
	}
	ivs := res.Profile.Intervals()
	records := 0
	for _, iv := range ivs {
		switch iv.Kind {
		case profiler.KindKernel, profiler.KindAPI, profiler.KindTransfer:
			records++
		}
	}
	ls.add("profiler.records", float64(records))
	if len(ivs) > 0 {
		p := profiler.New()
		d := timeIt("profiler.Record", func() {
			for _, iv := range ivs {
				p.Record(iv)
			}
		})
		ls.add("profiler.record_ns", float64(d.Nanoseconds())/float64(len(ivs)))
	}

	mach, err := train.MachineByName(n.Hardware)
	if err != nil {
		return err
	}
	spec := mach.Spec()
	kernels := append([]gpu.KernelCost(nil), fwd...)
	for _, st := range bwd {
		kernels = append(kernels, st.Kernels...)
	}
	if len(kernels) > 0 {
		ls.add("gpu.kernel_duration_ns", float64(perCall(func() {
			for _, k := range kernels {
				spec.KernelDuration(k)
			}
		}).Nanoseconds())/float64(len(kernels)))
	}

	top := mach.Build()
	devs := top.GPUs()
	if pairs := len(devs) * (len(devs) - 1); pairs > 0 {
		ls.add("topology.route_ns", float64(perCall(func() {
			for _, a := range devs {
				for _, b := range devs {
					if a != b {
						_, _ = top.Route(a, b, topology.RouteStagedNVLink)
					}
				}
			}
		}).Nanoseconds())/float64(pairs))
	}

	var sizes []units.Bytes
	for _, l := range net.WeightedLayers() {
		sizes = append(sizes, units.Bytes(l.Params)*4)
	}
	if len(sizes) > 0 {
		ls.add("nccl.autoselect_ns", float64(perCall(func() {
			for _, s := range sizes {
				nccl.AutoSelect(s, n.GPUs, true)
			}
		}).Nanoseconds())/float64(len(sizes)))
	}

	root := tr.add(op, -1, "replay "+cellLabel(w), rootStart, time.Now())
	for _, c := range calls {
		tr.add(op, root, c.name, c.start, c.end)
	}
	return nil
}

// freshModel builds a zoo network without the zoo's memo, so its plans
// are lowered from scratch.
func freshModel(name string) models.Description {
	switch name {
	case "lenet":
		return models.LeNet()
	case "alexnet":
		return models.AlexNet()
	case "googlenet":
		return models.GoogLeNet()
	case "inception-v3":
		return models.InceptionV3()
	default:
		return models.ResNet50()
	}
}

// trainConfig lowers a normalized workload the way the core layer does
// for the fields the benchmark's cells set.
func trainConfig(w core.Workload) (train.Config, error) {
	cfg, err := train.NewConfig(w.Model, w.GPUs, w.Batch, w.Method)
	if err != nil {
		return train.Config{}, err
	}
	cfg.Images = w.Images
	cfg.TensorCores = !w.DisableTensorCores
	cfg.Faults = w.Faults
	cfg.Hardware = w.Hardware
	cfg.Protocol = w.Protocol
	return cfg, nil
}

// timed runs body as one measured phase ending at the deadline it is
// given.
func timed(d time.Duration, body func(deadline time.Time) error) (phaseCost, error) {
	ph := beginPhase()
	err := body(ph.start.Add(d))
	return ph.end(), err
}
