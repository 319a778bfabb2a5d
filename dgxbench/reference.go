package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/core"
)

// referenceJSON pins the program's outputs as of the commit that
// recorded it: every cold-grid report, the serve-mix reference bodies,
// and one fleet Result per seed of the fleet pool. Regenerate it with
// -update-reference only when a change is meant to alter results.
//
//go:embed reference.json
var referenceJSON []byte

// referenceFile is where -update-reference writes, relative to the
// repository root the benchmark runs from.
const referenceFile = "dgxbench/reference.json"

type reference struct {
	// ColdGrid maps a cell label to the sha256 of its report's JSON.
	ColdGrid map[string]string `json:"coldGrid"`
	// ServeMix is the sha256 over every /v1/simulate reference body in
	// key order.
	ServeMix string `json:"serveMix"`
	// Fleet maps a fleet seed to the sha256 of its Result's JSON.
	Fleet map[string]string `json:"fleet"`
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("decode embedded reference: %w", err)
	}
	if len(r.ColdGrid) != len(gridCells()) || r.ServeMix == "" || len(r.Fleet) != fleetPoolSize {
		return nil, fmt.Errorf("embedded reference is incomplete: %d cold-grid cells, %d fleet seeds; run -update-reference",
			len(r.ColdGrid), len(r.Fleet))
	}
	return &r, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// reportDigest is the digest of a report's JSON encoding.
func reportDigest(r *core.Report) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// fleetDigest is the digest of a fleet Result's JSON encoding. The
// Result holds simulated time only, so it is deterministic in the seed.
func fleetDigest(r *cluster.Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// updateReference recomputes every pinned output and writes the file.
func updateReference(ctx context.Context) error {
	core.ResetCaches()
	ref := reference{ColdGrid: make(map[string]string), Fleet: make(map[string]string)}
	for _, w := range gridCells() {
		r, err := core.RunContext(ctx, w)
		if err != nil {
			return err
		}
		if err := checkReport(r); err != nil {
			return err
		}
		if ref.ColdGrid[cellLabel(w)], err = reportDigest(r); err != nil {
			return err
		}
	}
	keys := serveKeys()
	bodies, err := simulateBodies(ctx, keys)
	if err != nil {
		return err
	}
	ref.ServeMix = bodiesDigest(bodies)
	for _, s := range fleetPool() {
		r, err := cluster.Simulate(ctx, fleetSpec(s))
		if err != nil {
			return err
		}
		if ref.Fleet[strconv.FormatInt(s, 10)], err = fleetDigest(r); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referenceFile, append(b, '\n'), 0o644)
}
