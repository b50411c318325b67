package difftest

import (
	"fmt"

	"rips/internal/app"
	"rips/internal/ripsrt"
)

// simConfig is the configuration's simulator run: the one leg whose
// result is a pure function of the configuration.
func (c Config) simConfig(a app.App) ripsrt.Config {
	return ripsrt.Config{
		Topo:   c.machine(),
		App:    a,
		Local:  c.Local,
		Global: c.Global,
		Seed:   c.Seed,
	}
}

// Measure runs one configuration on the virtual-time simulator and
// returns the raw result for the lattice gate (internal/perfreg):
// virtual time, overhead and the task/migration counters reproduce
// exactly on any machine. Unlike Check it leaves invariants at their
// build default, so the numbers describe what users run — but it still
// refuses to report a measurement whose answer diverges from the
// sequential truth: a baseline recorded off a wrong run would gate
// future changes on garbage. Answer equality across the real backends
// is Check's job; their wall-clock numbers are `go run ./bench`'s.
func (h *Harness) Measure(cfg Config) (ripsrt.Result, error) {
	if err := cfg.validate(); err != nil {
		return ripsrt.Result{}, err
	}
	e, err := h.entry(cfg.App)
	if err != nil {
		return ripsrt.Result{}, err
	}
	res, err := ripsrt.Run(cfg.simConfig(e.app))
	if err != nil {
		return ripsrt.Result{}, fmt.Errorf("difftest: measuring [%s] on %s: %w", cfg, BackendSimulate, err)
	}
	if f := compare(cfg, BackendSimulate, e.truth,
		res.AppResult, res.Generated, res.Executed, res.VirtualWork); f != nil {
		return ripsrt.Result{}, f
	}
	return res, nil
}
