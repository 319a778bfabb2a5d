package main

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// anchorPair is one numeric claim of the paper next to the simulator's
// value for it, both in the unit EXPERIMENTS.md quotes it in.
type anchorPair struct {
	Name     string  `json:"name"`
	Paper    float64 `json:"paper"`
	Measured float64 `json:"measured"`
}

// reportFunc resolves a Figure 3 cell to its report. cold-grid serves
// its own pass's reports; the other workloads call core.Run.
type reportFunc func(core.Workload) (*core.Report, error)

// paperAnchors evaluates the 12 numeric anchors EXPERIMENTS.md quotes:
// LeNet b16 speed-up at 2/4/8 GPUs for p2p and for nccl, LeNet 4-GPU p2p
// b16->32->64, Table II LeNet b16 NCCL overhead, Table IV AlexNet b64 and
// Inception-v3 b64 GPU0 memory and Inception-v3 b16->b64 growth.
func paperAnchors(get reportFunc) ([]anchorPair, error) {
	var firstErr error
	epoch := func(model string, gpus, batch int, m core.Method) float64 {
		r, err := get(core.Workload{Model: model, GPUs: gpus, Batch: batch, Method: m})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return math.NaN()
		}
		return r.EpochTime.Seconds()
	}
	gpu0 := func(model string, batch int) float64 {
		r, err := get(core.Workload{Model: model, GPUs: 4, Batch: batch, Method: core.NCCL})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return math.NaN()
		}
		return r.Memory.Root().GiB()
	}
	var out []anchorPair
	speedup := map[core.Method][3]float64{core.P2P: {1.62, 2.37, 3.36}, core.NCCL: {1.56, 2.27, 2.77}}
	for _, m := range []core.Method{core.P2P, core.NCCL} {
		one := epoch("lenet", 1, 16, m)
		for i, g := range []int{2, 4, 8} {
			out = append(out, anchorPair{
				Name:  fmt.Sprintf("lenet b16 %s speed-up at %d GPUs", m, g),
				Paper: speedup[m][i], Measured: one / epoch("lenet", g, 16, m),
			})
		}
	}
	b16 := epoch("lenet", 4, 16, core.P2P)
	out = append(out,
		anchorPair{Name: "lenet 4-GPU p2p b16->b32", Paper: 1.92, Measured: b16 / epoch("lenet", 4, 32, core.P2P)},
		anchorPair{Name: "lenet 4-GPU p2p b16->b64", Paper: 3.67, Measured: b16 / epoch("lenet", 4, 64, core.P2P)},
	)
	p2p, nccl := epoch("lenet", 1, 16, core.P2P), epoch("lenet", 1, 16, core.NCCL)
	out = append(out,
		anchorPair{Name: "table II lenet b16 nccl overhead %", Paper: 21.8, Measured: 100 * (nccl - p2p) / p2p},
		anchorPair{Name: "table IV alexnet b64 GPU0 GiB", Paper: 2.37, Measured: gpu0("alexnet", 64)},
		anchorPair{Name: "table IV inception-v3 b64 GPU0 GiB", Paper: 11, Measured: gpu0("inception-v3", 64)},
		anchorPair{Name: "table IV inception-v3 b16->b64 growth", Paper: 1.83, Measured: gpu0("inception-v3", 64) / gpu0("inception-v3", 16)},
	)
	if firstErr != nil {
		return nil, fmt.Errorf("paper anchors: %w", firstErr)
	}
	return out, nil
}

// meanAbsRelErrPct is the mean absolute relative error of the measured
// values against the paper's, in percent.
func meanAbsRelErrPct(pairs []anchorPair) float64 {
	if len(pairs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, p := range pairs {
		sum += math.Abs(p.Measured-p.Paper) / math.Abs(p.Paper)
	}
	return 100 * sum / float64(len(pairs))
}

// paperErrPct is the paper_err_pct metric.
func paperErrPct(get reportFunc) (float64, error) {
	pairs, err := paperAnchors(get)
	if err != nil {
		return 0, err
	}
	return meanAbsRelErrPct(pairs), nil
}
