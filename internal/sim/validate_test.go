package sim

import (
	"io"
	"testing"

	"heteromem/internal/core"
	"heteromem/internal/fault"
	"heteromem/internal/scheme"
	"heteromem/internal/trace"
)

// TestConfigValidate covers every rule Validate owns, each with a config
// that breaks only that rule, and checks RunContext refuses the same
// configs before it reads a record.
func TestConfigValidate(t *testing.T) {
	live := &core.Options{Design: core.DesignLive, SwapInterval: 1000}
	alloy := scheme.Spec{Kind: scheme.KindAlloy}
	for _, tc := range []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"default", func(*Config) {}, true},
		{"live", func(c *Config) { c.Migration = live }, true},
		{"alloy", func(c *Config) { c.Scheme = alloy }, true},
		{"memcache", func(c *Config) { c.Scheme = scheme.Spec{Kind: scheme.KindMemCache}; c.Migration = live }, true},
		{"two channels", func(c *Config) { c.Channels = 2 }, true},
		{"two channels, wide interleave", func(c *Config) { c.Channels = 2; c.InterleaveBytes = 4 * c.Geometry.MacroPageSize }, true},
		{"checkpointed", func(c *Config) { c.CheckpointEvery = 100 }, true},
		{"observed", func(c *Config) { c.Metrics, c.SpanTrace, c.EpochSeries = true, 8, 8 }, true},
		{"faults", func(c *Config) { c.Fault = fault.Config{DeviceRate: 1e-3} }, true},

		{"page not a power of two", func(c *Config) { c.Geometry.MacroPageSize = 3000 }, false},
		{"page below the sub-block", func(c *Config) { c.Geometry.MacroPageSize = c.Geometry.SubBlockSize / 2 }, false},
		{"bad scheme spec", func(c *Config) { c.Scheme = scheme.Spec{Kind: scheme.KindCacheMode, Predictor: true} }, false},
		{"cache scheme with migration", func(c *Config) { c.Scheme = alloy; c.Migration = live }, false},
		{"cache scheme with audit", func(c *Config) { c.Scheme = alloy; c.Audit = true }, false},
		{"memcache without migration", func(c *Config) { c.Scheme = scheme.Spec{Kind: scheme.KindMemCache} }, false},
		{"zero swap interval", func(c *Config) { c.Migration = &core.Options{Design: core.DesignN1} }, false},
		{"design past Live", func(c *Config) { c.Migration = &core.Options{Design: core.Design(3), SwapInterval: 1000} }, false},
		{"negative design", func(c *Config) { c.Migration = &core.Options{Design: core.Design(-1), SwapInterval: 1000} }, false},
		{"three channels", func(c *Config) { c.Channels = 3 }, false},
		{"negative channels", func(c *Config) { c.Channels = -2 }, false},
		{"stripe wider than on-package", func(c *Config) { c.Channels = 1024 }, false},
		{"channel field beyond the address bits", func(c *Config) { c.Channels = 1 << 62 }, false},
		{"interleave below the page", func(c *Config) { c.Channels = 2; c.InterleaveBytes = c.Geometry.MacroPageSize / 2 }, false},
		{"bad fault rate", func(c *Config) { c.Fault = fault.Config{CopyRate: 2} }, false},
		{"checkpointed with metrics", func(c *Config) { c.CheckpointEvery = 100; c.Metrics = true }, false},
		{"resumed with spans", func(c *Config) { c.Resume = []byte{}; c.SpanTrace = 8 }, false},
		{"checkpointed with series", func(c *Config) { c.CheckpointEvery = 100; c.EpochSeries = 8 }, false},
	} {
		cfg := Default()
		cfg.Geometry = smallGeometry()
		tc.edit(&cfg)
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok {
			continue
		}
		if _, err := Run(unreadSource{t}, cfg); err == nil {
			t.Errorf("%s: Run accepted the config", tc.name)
		}
	}
}

// unreadSource fails the test if a run reads it.
type unreadSource struct{ t *testing.T }

func (s unreadSource) NextBatch(*trace.Batch) (int, error) {
	s.t.Error("run read a record of a config it should have refused")
	return 0, io.EOF
}
