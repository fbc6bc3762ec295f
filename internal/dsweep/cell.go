package dsweep

import (
	"fmt"

	"heteromem/internal/experiments"
	"heteromem/internal/sim"
	"heteromem/internal/workload"
)

// CellSpec names one sweep cell in wire-friendly form. sim.Config itself is
// not serializable (it carries the checkpoint sink), so the protocol ships
// the compact construction parameters instead; Config() rebuilds the full
// configuration deterministically, which is what makes the coordinator's and
// the worker's config digests agree — and with them the checkpoint
// resume-compatibility guard.
type CellSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Design   string `json:"design"`              // n, n-1, live, or none
	PageSize uint64 `json:"page_size,omitempty"` // macro page bytes (0 = Table III default)
	Interval uint64 `json:"interval,omitempty"`  // swap interval (accesses per epoch)
	Records  uint64 `json:"records"`             // record budget (must be > 0)
	Warmup   uint64 `json:"warmup,omitempty"`    // records excluded from statistics
	Channels int    `json:"channels,omitempty"`  // controller shards (0 or 1 = single)

	// Scheme is the on-package capacity policy by name (internal/scheme):
	// absent or empty means the paper's migration scheme, so every pre-v2
	// cell file keeps its meaning. The field is why ProtocolVersion is 2: a
	// v1 worker would drop it on decode and silently compute the wrong cell.
	Scheme string `json:"scheme,omitempty"`
}

// Validate rejects specs that could never simulate, so a bad cell fails at
// coordinator construction instead of burning through its lease attempts.
func (c CellSpec) Validate() error {
	if _, err := workload.NewMemory(c.Workload, c.Seed); err != nil {
		return err
	}
	if c.Records == 0 {
		return fmt.Errorf("dsweep: cell %s: zero record budget", c.Workload)
	}
	if c.Warmup >= c.Records {
		return fmt.Errorf("dsweep: cell %s: warmup %d >= records %d", c.Workload, c.Warmup, c.Records)
	}
	_, err := c.Config()
	return err
}

// Config deterministically reconstructs the cell's simulation
// configuration with the experiment drivers' experiments.CellConfig.
func (c CellSpec) Config() (sim.Config, error) {
	cfg, err := experiments.CellConfig(c.Design, c.Scheme, c.PageSize, c.Interval, c.Channels, c.Records, c.Warmup)
	if err != nil {
		return sim.Config{}, fmt.Errorf("dsweep: cell %s: %w", c.Workload, err)
	}
	return cfg, nil
}

// Key returns the cell's manifest ledger key.
func (c CellSpec) Key() (string, error) {
	cfg, err := c.Config()
	if err != nil {
		return "", err
	}
	return experiments.CellKey(c.Workload, c.Seed, cfg), nil
}

// Label is the human-readable cell name used in telemetry and logs.
func (c CellSpec) Label() string {
	design := c.Design
	if design == "" {
		design = "none"
	}
	l := c.Workload + "/" + design
	if c.Scheme != "" && c.Scheme != "migrate" {
		l += "/" + c.Scheme
	}
	return l
}
