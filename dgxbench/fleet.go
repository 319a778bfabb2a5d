package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
)

const (
	fleetJobs = 2000
	// fleetPoolSize is how many fleet seeds have a committed reference;
	// each op draws its seed from this pool in a seeded order.
	fleetPoolSize = 256
	// The pricing replay samples every fleetReplayEvery-th traced op, up
	// to fleetReplayOps of them, so the sample spans the phase.
	fleetReplayOps   = 16
	fleetReplayEvery = 100
)

// fleetPool is the fixed list of seeds the committed fleet references
// cover.
func fleetPool() []int64 {
	out := make([]int64, fleetPoolSize)
	for k := range out {
		out[k] = int64(k)*1_000_003 + 7
	}
	return out
}

// fleetSeeds is the op-seed sequence a workload seed draws: a seeded
// permutation of the pool, cycled.
func fleetSeeds(seed int64) []int64 {
	pool := fleetPool()
	perm := rand.New(rand.NewSource(seed)).Perm(len(pool))
	out := make([]int64, len(pool))
	for i, p := range perm {
		out[i] = pool[p]
	}
	return out
}

// fleetFaults is the plan two of the fleet's DGX-1s carry: one failed
// NVLink brick.
func fleetFaults() *faults.Plan { return &faults.Plan{FailedLinks: []faults.Link{{A: 0, B: 1}}} }

// fleetSpec is one op's fleet: 10 healthy DGX-1s, 2 faulted ones and 4
// DGX-2s under frag-aware placement and an SJF queue, fed a 2,000-job
// trace generated from seed.
func fleetSpec(seed int64) cluster.Spec {
	return cluster.Spec{
		Nodes: []cluster.NodeSpec{
			{Count: 10, Hardware: "dgx1"},
			{Count: 2, Hardware: "dgx1", Faults: fleetFaults()},
			{Count: 4, Hardware: "dgx2"},
		},
		Mix:    &cluster.Mix{Jobs: fleetJobs},
		Policy: cluster.PolicyFragAware,
		Queue:  cluster.QueueSJF,
		Seed:   seed,
	}
}

type fleetReplay struct {
	jobs       []cluster.Job
	distinct   int
	simulateMS float64
}

type fleet struct {
	cfg     *config
	seeds   []int64
	next    int
	sampled []fleetReplay
	wall    []time.Duration // wall time of each op of the current phase
}

func setupFleet(ctx context.Context, cfg *config) (instance, error) {
	core.ResetCaches()
	// Warm pricing: every template on every node class, so no op
	// compiles. The trace generator's tables are the Figure 3 axes: the
	// five models x GPUs {1,2,4,8} x batch {16,32,64}.
	classes := []struct {
		hw   string
		plan *faults.Plan
	}{{"dgx1", nil}, {"dgx1", fleetFaults()}, {"dgx2", nil}}
	for _, c := range classes {
		for _, m := range gridModels {
			for _, g := range gridGPUs {
				for _, b := range gridBatches {
					w := core.Workload{Model: m, GPUs: g, Batch: b, Method: core.NCCL, Images: 16384, Hardware: c.hw, Faults: c.plan}
					if _, err := core.SimulateContext(ctx, w); err != nil {
						return nil, fmt.Errorf("warm pricing %s: %w", cellLabel(w), err)
					}
				}
			}
		}
	}
	f := &fleet{cfg: cfg, seeds: fleetSeeds(cfg.seed)}
	// One checked op before timing faults the event loop's code and heap in.
	pr := &phaseResult{}
	f.op(ctx, pr, nil, nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if pr.failed > 0 {
		return nil, fmt.Errorf("warm-up op: %s", pr.firstFail)
	}
	return f, nil
}

// op runs one fleet simulation and checks its Result against the
// reference for its seed. A traced op runs the same simulation split at
// the layer boundary: the trace generated first, then simulated as an
// explicit job list.
func (f *fleet) op(ctx context.Context, pr *phaseResult, tr *tracer, ls *layerStats) {
	seed := f.seeds[f.next%len(f.seeds)]
	f.next++
	spec := fleetSpec(seed)
	id := pr.attempted
	pr.attempted++
	cpu0 := processCPU()
	start := time.Now()
	var (
		res          *cluster.Result
		err          error
		genEnd, simS time.Time
		jobs         []cluster.Job
	)
	if tr == nil {
		res, err = cluster.Simulate(ctx, spec)
	} else {
		jobs = cluster.GenerateTrace(*spec.Normalize().Mix, seed)
		genEnd = time.Now()
		explicit := spec
		explicit.Mix, explicit.Jobs = nil, jobs
		simS = time.Now()
		res, err = cluster.Simulate(ctx, explicit)
	}
	end := time.Now()
	cpu := processCPU() - cpu0
	pr.lats = append(pr.lats, cpu)
	f.wall = append(f.wall, end.Sub(start))
	if err != nil {
		pr.fail(false, "seed %d: %v", seed, err)
		return
	}
	d, err := fleetDigest(res)
	if err != nil {
		pr.fail(true, "seed %d: encode result: %v", seed, err)
		return
	}
	if want := f.cfg.ref.Fleet[strconv.FormatInt(seed, 10)]; d != want {
		pr.fail(true, "seed %d: result digest %.12s, reference %.12s", seed, d, want)
		return
	}
	if tr != nil {
		root := tr.add(id, -1, "fleet-replay.op", start, time.Now())
		tr.add(id, root, "cluster.GenerateTrace", start, genEnd)
		tr.add(id, root, "cluster.Simulate", simS, end)
		ls.add("cluster.trace_gen_ms", ms(genEnd.Sub(start)))
		ls.add("cluster.simulate_ms", ms(end.Sub(simS)))
		ls.add("cluster.epochs", float64(res.SchedulingEpochs))
		ls.add("cluster.distinct_services", float64(res.DistinctServices))
		if id%fleetReplayEvery == 0 && len(f.sampled) < fleetReplayOps {
			f.sampled = append(f.sampled, fleetReplay{jobs: jobs, distinct: res.DistinctServices, simulateMS: ms(end.Sub(simS))})
		}
	}
}

func (f *fleet) measure(ctx context.Context, d time.Duration, tr *tracer, ls *layerStats) (*phaseResult, error) {
	pr := &phaseResult{}
	c0 := core.CompileCount()
	// On a shared host about 1% of fleet ops lose several milliseconds to
	// a stolen vCPU, and those are exactly the ops a wall-clock p99
	// picks. So op latency is the process CPU time used from op start to
	// op end: the op's own compute plus the collector work running
	// beside it, without the time the host took the vCPUs away. Wall
	// times go to the report line.
	f.wall = f.wall[:0]
	// A fleet op takes tens of milliseconds, so on a slow host --seconds
	// can end before the phase holds minP99Samples ops and op_p99_ms
	// would be refused; the phase then runs on until it does.
	cost, err := timed(d, func(deadline time.Time) error {
		for time.Now().Before(deadline) || len(pr.lats) < minP99Samples {
			if err := ctx.Err(); err != nil {
				return err
			}
			f.op(ctx, pr, tr, ls)
		}
		return nil
	})
	pr.cost = cost
	pr.extra = map[string]float64{"core.compiles": float64(core.CompileCount() - c0)}
	for name, p := range map[string]float64{"wall_op_p50_ms": 50, "wall_op_p99_ms": 99} {
		if v, err := percentile(f.wall, p); err == nil {
			pr.extra[name] = ms(v)
		}
	}
	return pr, err
}

// replay prices each sampled op's distinct job workloads through warm
// core.SimulateContext calls: the per-service pricing cost times the
// op's distinct-service count estimates the pricing share of the op, and
// the rest of the simulate time is the event loop's.
func (f *fleet) replay(ctx context.Context, tr *tracer, ls *layerStats) error {
	for i, s := range f.sampled {
		start := time.Now()
		seen := make(map[core.Workload]bool)
		var total time.Duration
		for _, j := range s.jobs {
			w := core.Workload{Model: j.Model, GPUs: j.GPUs, Batch: j.Batch, Method: j.Method, Images: j.Images, Hardware: "dgx1"}
			if seen[w] {
				continue
			}
			seen[w] = true
			var err error
			total += perCall(func() { _, err = core.SimulateContext(ctx, w) })
			if err != nil {
				return err
			}
		}
		if len(seen) == 0 {
			continue
		}
		price := ms(total) / float64(len(seen)) * float64(s.distinct)
		ls.add("cluster.price_est_ms", price)
		ls.add("cluster.loop_est_ms", s.simulateMS-price)
		tr.add(replayOps+int64(i), -1, "replay fleet pricing", start, time.Now())
	}
	return nil
}

func (f *fleet) paperErr(ctx context.Context) (float64, error) {
	return paperErrPct(func(w core.Workload) (*core.Report, error) { return core.RunContext(ctx, w) })
}

func (f *fleet) close() {}
