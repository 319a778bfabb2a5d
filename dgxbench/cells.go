package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/train"
)

// The paper's Figure 3 grid and the hardware slice beside it: the
// cold-grid workload's cells, and the compile keys of serve-mix.
var (
	gridModels  = []string{"lenet", "alexnet", "resnet", "googlenet", "inception-v3"}
	gridGPUs    = []int{1, 2, 4, 8}
	gridBatches = []int{16, 32, 64}
	gridMethods = []core.Method{core.P2P, core.NCCL}

	sliceHardware  = []string{"dgx1-pascal", "dgx2", "dgx-a100", "dgx-h100"}
	sliceProtocols = []string{"simple", "auto"}
	sliceBatch     = 32
)

// figure3Cells is the paper's Figure 3 grid on the DGX-1: 120 cells,
// spelled with defaults left zero as the paper-era API does.
func figure3Cells() []core.Workload {
	var out []core.Workload
	for _, m := range gridModels {
		for _, g := range gridGPUs {
			for _, b := range gridBatches {
				for _, meth := range gridMethods {
					out = append(out, core.Workload{Model: m, GPUs: g, Batch: b, Method: meth})
				}
			}
		}
	}
	return out
}

// hardwareSlice runs every model on each newer machine, full machine at
// batch 32, under both the paper's protocol and NCCL's tuner: 40 cells.
func hardwareSlice() []core.Workload {
	var out []core.Workload
	for _, m := range gridModels {
		for _, hw := range sliceHardware {
			mach, err := train.MachineByName(hw)
			if err != nil {
				panic(err) // the names above are the registry's own
			}
			for _, p := range sliceProtocols {
				out = append(out, core.Workload{
					Model: m, GPUs: mach.GPUs, Batch: sliceBatch,
					Method: core.NCCL, Hardware: hw, Protocol: p,
				})
			}
		}
	}
	return out
}

// gridCells is the cold-grid cell set in canonical order.
func gridCells() []core.Workload { return append(figure3Cells(), hardwareSlice()...) }

// cellLabel names a cell in the committed reference.
func cellLabel(w core.Workload) string {
	n := w.Normalize()
	return fmt.Sprintf("%s/%s/g%d/b%d/%s/%s/i%d", n.Model, n.Hardware, n.GPUs, n.Batch, n.Method, n.Protocol, n.Images)
}

// checkReport holds the invariants every report must satisfy whatever
// its numbers: finite floats, the iteration count the epoch implies, and
// a positive epoch time.
func checkReport(r *core.Report) error {
	w := r.Workload
	images := w.Images
	if w.WeakScaling {
		images *= int64(w.GPUs)
	}
	per := int64(w.Batch) * int64(w.GPUs)
	if want := (images + per - 1) / per; r.Iterations != want {
		return fmt.Errorf("%s: %d iterations, want ceil(%d/%d) = %d", cellLabel(w), r.Iterations, images, per, want)
	}
	if r.EpochTime <= 0 {
		return fmt.Errorf("%s: epoch time %v is not positive", cellLabel(w), r.EpochTime)
	}
	for name, v := range map[string]float64{
		"imagesPerSecond": r.Throughput, "syncPercent": r.SyncPercent,
		"computeUtilization": r.ComputeUtilization,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: %s is %v", cellLabel(w), name, v)
		}
	}
	return nil
}
