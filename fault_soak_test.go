package heteromem_test

import (
	"os"
	"reflect"
	"strconv"
	"testing"

	"heteromem"
)

// soakEnv reads an integer knob for the fault soak, falling back to def.
// `make soak` randomizes SOAK_SEED; plain `go test` uses the fixed default
// so the tier-1 suite stays deterministic.
func soakEnv(t *testing.T, name string, def uint64) uint64 {
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("%s=%q: %v", name, s, err)
	}
	return v
}

// TestFaultSoak is the PR's acceptance campaign: a 1e-4 fault rate on
// every injection point over an audited million-record run of each
// migration design. The run must complete without error (no invariant
// violation ever surfaces through Err), and the disposition ledger must
// balance — every injected fault ends in exactly one of retried,
// rolled-back, retired, or degraded.
func TestFaultSoak(t *testing.T) {
	records := soakEnv(t, "SOAK_RECORDS", 1_000_000)
	fseed := soakEnv(t, "SOAK_SEED", 7)
	for _, d := range []struct {
		name   string
		design heteromem.Design
	}{
		{"n", heteromem.DesignN},
		{"n-1", heteromem.DesignN1},
		{"live", heteromem.DesignLive},
	} {
		t.Run(d.name, func(t *testing.T) {
			sys, err := heteromem.New(heteromem.Config{
				Migration: heteromem.Migration{Enabled: true, Design: d.design, SwapInterval: 1000},
				Audit:     true,
				Fault: heteromem.FaultConfig{
					Seed:       fseed,
					DeviceRate: 1e-4,
					CopyRate:   1e-4,
					BulkRate:   1e-4,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.RunWorkload("pgbench", 1, records)
			if err != nil {
				t.Fatal(err)
			}
			f := res.Faults
			if f == nil {
				t.Fatal("fault campaign produced no ledger")
			}
			if f.Injected == 0 {
				t.Fatalf("no faults injected over %d records", records)
			}
			if !f.Balanced(f.Injected) {
				t.Fatalf("disposition ledger unbalanced: %+v", f)
			}
			t.Logf("design %s: %+v", d.name, f)
		})
	}
}

// TestFaultConfigZeroValueIsInert pins the compatibility contract: a run
// with the zero FaultConfig — and one whose config only sets fields that
// do not enable injection — must produce results identical to each other
// and carry no fault ledger. The fault layer must be invisible unless a
// rate or schedule turns it on.
func TestFaultConfigZeroValueIsInert(t *testing.T) {
	run := func(fc heteromem.FaultConfig) heteromem.Result {
		sys, err := heteromem.New(heteromem.Config{
			Migration: heteromem.Migration{Enabled: true, Design: heteromem.DesignLive, SwapInterval: 1000},
			Audit:     true,
			Fault:     fc,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunWorkload("pgbench", 1, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	zero := run(heteromem.FaultConfig{})
	seedOnly := run(heteromem.FaultConfig{Seed: 99, RetryBudget: 5, RetireAfter: 2})
	if zero.Faults != nil || seedOnly.Faults != nil {
		t.Fatalf("inert fault config produced a ledger: %+v / %+v", zero.Faults, seedOnly.Faults)
	}
	if !reflect.DeepEqual(zero, seedOnly) {
		t.Fatal("disabled fault injection perturbed simulation results")
	}
}
