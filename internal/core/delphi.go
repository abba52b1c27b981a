package core

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/delphi"
	"repro/internal/delphi/registry"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/telemetry"
)

// DeviceClass maps a metric ID to its Delphi device class: the segment after
// the last '.' in the cluster naming convention ("comp00.nvme0.capacity" →
// "capacity"), so all devices exposing the same kind of signal share one
// combiner lineage; a metric without dots is its own class. Classes are the
// unit of model versioning, promotion, and retraining.
func DeviceClass(id telemetry.MetricID) string {
	s := string(id)
	if i := strings.LastIndexByte(s, '.'); i >= 0 && i+1 < len(s) {
		return s[i+1:]
	}
	return s
}

// delphiFleet is the per-device-class sharding layer, active whenever the
// service runs Delphi: each class carries its own model (the registry's
// active version, falling back to Config.Delphi for classes with no lineage
// yet), its own batch predictor, and its own drift/retrain loop. Without
// Config.DelphiRegistry it holds one unversioned "default" class serving
// Config.Delphi, with no trainer.
type delphiFleet struct {
	cfg Config
	obs *obs.Registry

	reg     *registry.Registry // nil without Config.DelphiRegistry
	trainer *registry.Trainer

	mu      sync.Mutex
	classes map[string]*deviceClass
}

// deviceClass is one model shard. Its mutex guards membership and the sweep
// scratch; promotions swap the model under it, so a sweep never mixes
// engines with a half-applied promotion.
type deviceClass struct {
	name  string
	fleet *delphiFleet

	mu      sync.Mutex
	model   *delphi.Model
	batch   *delphi.BatchPredictor
	members []member // members[i] sits in batch slot i
	scratch []delphi.BatchPrediction
	version int
}

// member is one Delphi-enabled vertex enrolled in a class.
type member struct {
	id     telemetry.MetricID
	online *delphi.Online
	det    *delphi.Detector // nil when drift detection is off
	vertex *score.FactVertex
}

func newDelphiFleet(cfg Config, o *obs.Registry) (*delphiFleet, error) {
	f := &delphiFleet{cfg: cfg, obs: o, classes: make(map[string]*deviceClass)}
	if cfg.DelphiRegistry == "" {
		f.classFor("") // instruments the default class from startup
		return f, nil
	}
	reg, err := registry.Open(cfg.DelphiRegistry)
	if err != nil {
		return nil, err
	}
	f.reg = reg
	if cfg.DelphiRetrain > 0 {
		f.trainer, err = registry.NewTrainer(registry.Config{
			Clock:    cfg.Clock,
			Interval: cfg.DelphiRetrain,
			Registry: reg,
			Retrain:  delphi.RetrainConfig{Seed: 1},
			Obs:      o,
		})
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// classKey names the class a metric joins: its DeviceClass when a registry
// versions models per class, else the one "default" class.
func (f *delphiFleet) classKey(id telemetry.MetricID) string {
	if f.reg == nil {
		return "default"
	}
	return DeviceClass(id)
}

// classFor returns (creating on first use) the shard for a metric's class.
// A freshly created class serves the registry's active version if one
// exists, otherwise the service-wide base model.
func (f *delphiFleet) classFor(id telemetry.MetricID) *deviceClass {
	name := f.classKey(id)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.classes[name]; ok {
		return c
	}
	c := &deviceClass{name: name, fleet: f, model: f.cfg.Delphi}
	if f.reg != nil {
		if m, v, err := f.reg.Active(name); err == nil {
			c.model, c.version = m, v
		}
		f.obs.Gauge(obs.Name("delphi_model_version", "class", name)).Set(float64(c.version))
	}
	if c.model != nil && f.cfg.DelphiBatch > 0 {
		if bp, err := delphi.NewBatchPredictor(c.model, f.cfg.DelphiBatch); err == nil {
			bp.Instrument(f.obs, name)
			c.batch = bp
		}
	}
	f.classes[name] = c
	if f.trainer != nil {
		// Ignoring the error: the class name came from DeviceClass, which
		// yields registry-legal names for cluster-convention metric IDs.
		_ = f.trainer.RegisterClass(registry.ClassSpec{
			Name:   name,
			Source: c.measuredSegments,
			Base:   c.currentModel,
			Apply:  c.promote,
		})
	}
	return c
}

// newOnline wraps the class's current model for one vertex.
func (c *deviceClass) newOnline() *delphi.Online {
	c.mu.Lock()
	defer c.mu.Unlock()
	return delphi.NewOnline(c.model)
}

// attach enrolls a registered vertex in the shard.
func (c *deviceClass) attach(m member) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.batch != nil {
		if _, err := c.batch.Register(m.online); err != nil {
			// The online wraps an older model than a promotion that landed
			// between newOnline and attach; align it and retry.
			if m.online.SwapModel(c.model) == nil {
				_, _ = c.batch.Register(m.online)
			}
		}
	}
	c.members = append(c.members, m)
}

// detach removes an unregistered metric from its class: from the batch
// sweep, the retrainer's dataset and the promotion fan-out. Later members
// shift down one slot in step with the batch predictor's slots.
func (f *delphiFleet) detach(id telemetry.MetricID) {
	f.mu.Lock()
	c, ok := f.classes[f.classKey(id)]
	f.mu.Unlock()
	if !ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i := slices.IndexFunc(c.members, func(m member) bool { return m.id == id })
	if i < 0 {
		return
	}
	if c.batch != nil {
		c.batch.Unregister(i)
	}
	c.members = slices.Delete(c.members, i, i+1)
}

// measuredSegments snapshots every member vertex's measured history — the
// retrainer's dataset source. Runs on a trainer worker; the zero-copy scan
// iterates the live ring without copying tuples, only the float values land
// in the segment buffers.
func (c *deviceClass) measuredSegments() [][]float64 {
	c.mu.Lock()
	members := slices.Clone(c.members)
	c.mu.Unlock()
	segs := make([][]float64, 0, len(members))
	for _, m := range members {
		var seg []float64
		m.vertex.History().RangeFunc(-1<<62, 1<<62, func(in telemetry.Info) bool {
			if in.Source == telemetry.Measured {
				seg = append(seg, in.Value)
			}
			return true
		})
		if len(seg) > 0 {
			segs = append(segs, seg)
		}
	}
	return segs
}

func (c *deviceClass) currentModel() *delphi.Model {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.model
}

// promote installs a freshly validated model: swap every serving engine,
// lift the measured-only fallback, and re-arm the detectors so the new model
// is judged from scratch. The engine is compiled by SwapModel before any
// per-instance lock is taken — steady-state Predict calls are blocked only
// for pointer swaps, never for compilation or I/O.
func (c *deviceClass) promote(m *delphi.Model, version int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.model, c.version = m, version
	if c.batch != nil {
		_ = c.batch.SwapModel(m)
	}
	for _, mem := range c.members {
		if c.batch == nil {
			_ = mem.online.SwapModel(m)
		}
		mem.online.SetFallback(false)
		if mem.det != nil {
			mem.det.Reset()
		}
	}
}

// predictAll sweeps every class in name order and appends the per-metric
// results. Class sweeps serialize on the class lock (promotions and sweeps
// never interleave mid-batch).
func (f *delphiFleet) predictAll() []BatchResult {
	f.mu.Lock()
	names := make([]string, 0, len(f.classes))
	for n := range f.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	classes := make([]*deviceClass, len(names))
	for i, n := range names {
		classes[i] = f.classes[n]
	}
	f.mu.Unlock()

	var out []BatchResult
	for _, c := range classes {
		c.mu.Lock()
		if c.batch != nil {
			c.scratch = c.batch.PredictAll(c.scratch[:0])
			for _, p := range c.scratch {
				out = append(out, BatchResult{Metric: c.members[p.Slot].id, Value: p.Value, OK: p.OK})
			}
		}
		c.mu.Unlock()
	}
	return out
}

func (f *delphiFleet) start() {
	if f.trainer != nil {
		f.trainer.Start()
	}
}

func (f *delphiFleet) stop() {
	if f.trainer != nil {
		f.trainer.Stop()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.classes {
		c.mu.Lock()
		if c.batch != nil {
			c.batch.Close()
		}
		c.mu.Unlock()
	}
}

// DelphiRegistry exposes the versioned model store, or nil when
// Config.DelphiRegistry is unset.
func (s *Service) DelphiRegistry() *registry.Registry {
	if s.fleet == nil {
		return nil
	}
	return s.fleet.reg
}

// DelphiTrainer exposes the background retrainer, or nil unless both
// Config.DelphiRegistry and Config.DelphiRetrain are set. Deterministic
// scenarios drive it synchronously via RunOnce instead of waiting out the
// cadence.
func (s *Service) DelphiTrainer() *registry.Trainer {
	if s.fleet == nil {
		return nil
	}
	return s.fleet.trainer
}

// ModelVersion reports the active model version serving a device class
// (0 while a class still runs the unversioned base model or is unknown).
func (s *Service) ModelVersion(class string) int {
	if s.fleet == nil {
		return 0
	}
	s.fleet.mu.Lock()
	c, ok := s.fleet.classes[class]
	s.fleet.mu.Unlock()
	if !ok {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}
