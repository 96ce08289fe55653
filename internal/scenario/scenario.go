package scenario

import (
	"fmt"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobqueue"
	"lopram/internal/workload"
)

// Arrival processes a Spec can declare.
const (
	// ArrivalClosed is a closed-loop client population: Clients requests
	// are kept in flight, and each completion immediately triggers the
	// next submission. Throughput self-regulates to the system's
	// capacity, so closed scenarios cannot overrun admission control.
	ArrivalClosed = "closed"
	// ArrivalOpen is an open-loop Poisson stream: submissions arrive at
	// RatePerSec on exponentially spaced gaps regardless of completions,
	// so an underprovisioned queue visibly rejects or queues up — the
	// shape real external traffic has.
	ArrivalOpen = "open"
	// ArrivalRamp is an open-loop Poisson stream whose rate ramps
	// linearly from RampStartPerSec to RatePerSec over RampDuration and
	// then holds — the launch-surge (or, ramping down, the drain) shape
	// that probes how admission and stealing absorb a rate change.
	ArrivalRamp = "ramp"
	// ArrivalDiurnal is an open-loop Poisson stream whose rate
	// oscillates sinusoidally around RatePerSec with relative amplitude
	// DiurnalAmplitude and period DiurnalPeriod — a compressed
	// day/night traffic cycle.
	ArrivalDiurnal = "diurnal"
)

// Ingest paths a Spec can declare.
const (
	// IngestSingle submits one job per Queue.Submit call — the default,
	// and the path the arrival processes shape.
	IngestSingle = "single"
	// IngestBatch submits jobs through the queue's pooled batch-first
	// path (Queue.NewBatch) in BatchSize groups, each group settling
	// before the next is submitted. Batch ingest ignores the arrival
	// process and client window: it measures the submit path's
	// throughput, so the driver pushes as fast as the queue drains.
	IngestBatch = "batch"
)

// Spec declares one load scenario. The zero values of most fields select
// defaults (see Validate); Seed pins every random choice, so a Spec is a
// complete, reproducible description of a traffic pattern.
type Spec struct {
	// Name identifies the scenario in catalogues and reports.
	Name string `json:"name"`
	// Description says what the scenario is probing for.
	Description string `json:"description,omitempty"`
	// Seed drives every random choice (mix, sizes, duplicates, priority
	// rolls, arrival gaps). Same seed, same traffic.
	Seed uint64 `json:"seed"`
	// Jobs is the total number of submissions to issue.
	Jobs int `json:"jobs"`
	// Arrival selects the arrival process: ArrivalClosed (default),
	// ArrivalOpen, ArrivalRamp or ArrivalDiurnal.
	Arrival string `json:"arrival,omitempty"`
	// RatePerSec is the mean Poisson arrival rate for the open-loop
	// arrivals: the constant rate (ArrivalOpen), the post-ramp rate
	// (ArrivalRamp), or the cycle's base rate (ArrivalDiurnal).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// RampStartPerSec is ArrivalRamp's initial rate; the rate moves
	// linearly from here to RatePerSec over RampDuration. Must be
	// positive (start a surge from a trickle, not from zero).
	RampStartPerSec float64 `json:"ramp_start_per_sec,omitempty"`
	// RampDuration is how long ArrivalRamp takes to reach RatePerSec.
	RampDuration time.Duration `json:"ramp_duration_ns,omitempty"`
	// DiurnalAmplitude is ArrivalDiurnal's relative swing in [0, 1):
	// the rate peaks at RatePerSec×(1+amplitude) and troughs at
	// RatePerSec×(1−amplitude). Default 0.5.
	DiurnalAmplitude float64 `json:"diurnal_amplitude,omitempty"`
	// DiurnalPeriod is ArrivalDiurnal's cycle length.
	DiurnalPeriod time.Duration `json:"diurnal_period_ns,omitempty"`
	// Clients is the closed-loop population size (in-flight window) for
	// ArrivalClosed. Default 16.
	Clients int `json:"clients,omitempty"`
	// Ingest selects the submit path: IngestSingle (default, one Submit
	// per job, shaped by Arrival) or IngestBatch (the pooled batch-first
	// path in BatchSize groups; Arrival and Clients do not apply).
	Ingest string `json:"ingest,omitempty"`
	// BatchSize is IngestBatch's group size; default 64. Only valid with
	// batch ingest.
	BatchSize int `json:"batch_size,omitempty"`
	// DupFraction is the probability that a submission re-issues an
	// earlier spec verbatim — the duplicate traffic the result cache and
	// coalescer exist for.
	DupFraction float64 `json:"dup_fraction,omitempty"`
	// BatchFraction is the probability that a job whose mix entry does
	// not pin a priority is submitted in the batch class; the rest are
	// interactive.
	BatchFraction float64 `json:"batch_fraction,omitempty"`
	// SeedSpace bounds the per-job input seeds to [0, SeedSpace): a
	// small space produces organic duplicates on top of DupFraction.
	// Default 8.
	SeedSpace uint64 `json:"seed_space,omitempty"`
	// Timeout is the per-job deadline stamped on every generated spec;
	// 0 leaves the queue's default in force.
	Timeout time.Duration `json:"timeout_ns,omitempty"`
	// Mix is the weighted traffic composition. Empty means the full
	// catalogue: every algorithm on every engine it supports, uniformly
	// weighted.
	Mix []MixEntry `json:"mix,omitempty"`
	// Classes is the priority-class set the scenario's queue should
	// serve; empty means the default interactive/batch pair. Mix-entry
	// Priority pins and BatchFraction are validated against this set at
	// expansion, and QueueConfig passes it to the queue it shapes.
	Classes jobqueue.ClassSet `json:"classes,omitempty"`
	// Shards and Workers are the queue shape the scenario wants when the
	// harness builds a queue for it (QueueConfig); 0 defers to the
	// harness's own configuration.
	Shards  int `json:"shards,omitempty"`
	Workers int `json:"workers,omitempty"`
	// DequeuePolicy and AdmissionPolicy select the queue's decision
	// policies for the replay (jobqueue.DequeuePolicyNames /
	// AdmissionPolicyNames list the valid values; admission accepts
	// token-bucket[:RATE[:BURST]]). Empty means the native defaults. The
	// policies shape the queue, never the job stream: Stream's output is
	// policy-independent, which is what makes policy A/B replays of one
	// scenario byte-comparable.
	DequeuePolicy   string `json:"dequeue_policy,omitempty"`
	AdmissionPolicy string `json:"admission_policy,omitempty"`
	// Resizes schedules live placement-table changes during the replay:
	// each entry resizes the queue to Shards shards immediately before
	// the submission at stream offset AtJob. Entries must be ordered by
	// AtJob. Because the job stream is independent of the shard count,
	// a resized replay submits byte-identical traffic — only placement
	// moves — which is what lets the replay assert that no job is lost,
	// duplicated or mis-cached across a live resize.
	Resizes []ResizeAt `json:"resizes,omitempty"`
}

// ResizeAt is one scheduled live resize inside a scenario replay.
type ResizeAt struct {
	// AtJob is the 0-based submission offset before which the resize
	// fires; it must lie in [0, Spec.Jobs).
	AtJob int `json:"at_job"`
	// Shards is the placement-table size to resize to, in
	// [1, jobqueue.MaxShards].
	Shards int `json:"shards"`
}

// MixEntry is one weighted slice of a scenario's traffic. Empty Algorithm
// means every catalogue algorithm; empty Engine means every engine the
// algorithm supports; the entry expands to the cross product.
type MixEntry struct {
	Algorithm string `json:"algorithm,omitempty"`
	Engine    string `json:"engine,omitempty"`
	// Weight is the entry's relative probability per expanded
	// (algorithm, engine) pair. Default 1.
	Weight int `json:"weight,omitempty"`
	// MinN and MaxN bound the log-uniform input-size draw. Defaults: 16
	// and the engine's admission limit capped at 65536; both are clamped
	// to the engine's limit.
	MinN int `json:"min_n,omitempty"`
	MaxN int `json:"max_n,omitempty"`
	// Priority pins every job from this entry to a class; empty rolls
	// per job against Spec.BatchFraction. Pinning lets a scenario give
	// its classes different traffic shapes (the priority-inversion probe
	// floods batch with heavy jobs while interactive stays small).
	Priority jobqueue.Class `json:"priority,omitempty"`
}

// pair is one concrete (algorithm, engine) slice of the expanded mix.
type pair struct {
	algo     string
	engine   core.Engine
	weight   int
	minN     int
	maxN     int
	priority jobqueue.Class
}

// sizeCap keeps default size draws in the interactive range; entries
// wanting the engine's full admission limit set MaxN explicitly.
const sizeCap = 1 << 16

// Validate checks the spec and fills defaults in place (it is called by
// Stream and Run; standalone use is for fail-fast config loading).
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.Jobs <= 0 {
		return fmt.Errorf("scenario %s: jobs must be positive, got %d", s.Name, s.Jobs)
	}
	switch s.Arrival {
	case "":
		s.Arrival = ArrivalClosed
	case ArrivalClosed, ArrivalOpen, ArrivalRamp, ArrivalDiurnal:
	default:
		return fmt.Errorf("scenario %s: unknown arrival %q (want %q, %q, %q or %q)",
			s.Name, s.Arrival, ArrivalClosed, ArrivalOpen, ArrivalRamp, ArrivalDiurnal)
	}
	if s.Arrival != ArrivalClosed && s.RatePerSec <= 0 {
		return fmt.Errorf("scenario %s: %s arrival needs rate_per_sec > 0", s.Name, s.Arrival)
	}
	if s.Arrival == ArrivalRamp {
		if s.RampStartPerSec <= 0 {
			return fmt.Errorf("scenario %s: ramp arrival needs ramp_start_per_sec > 0", s.Name)
		}
		if s.RampDuration <= 0 {
			return fmt.Errorf("scenario %s: ramp arrival needs ramp_duration_ns > 0", s.Name)
		}
	}
	if s.Arrival == ArrivalDiurnal {
		if s.DiurnalAmplitude == 0 {
			s.DiurnalAmplitude = 0.5
		}
		if s.DiurnalAmplitude < 0 || s.DiurnalAmplitude >= 1 {
			return fmt.Errorf("scenario %s: diurnal_amplitude %v outside [0, 1)", s.Name, s.DiurnalAmplitude)
		}
		if s.DiurnalPeriod <= 0 {
			return fmt.Errorf("scenario %s: diurnal arrival needs diurnal_period_ns > 0", s.Name)
		}
	}
	if s.Clients <= 0 {
		s.Clients = 16
	}
	switch s.Ingest {
	case "", IngestSingle:
		if s.BatchSize != 0 {
			return fmt.Errorf("scenario %s: batch_size needs ingest %q", s.Name, IngestBatch)
		}
	case IngestBatch:
		if s.BatchSize < 0 {
			return fmt.Errorf("scenario %s: batch_size must be positive, got %d", s.Name, s.BatchSize)
		}
		if s.BatchSize == 0 {
			s.BatchSize = 64
		}
	default:
		return fmt.Errorf("scenario %s: unknown ingest %q (want %q or %q)",
			s.Name, s.Ingest, IngestSingle, IngestBatch)
	}
	if s.DupFraction < 0 || s.DupFraction >= 1 {
		return fmt.Errorf("scenario %s: dup_fraction %v outside [0, 1)", s.Name, s.DupFraction)
	}
	if s.BatchFraction < 0 || s.BatchFraction > 1 {
		return fmt.Errorf("scenario %s: batch_fraction %v outside [0, 1]", s.Name, s.BatchFraction)
	}
	if len(s.Classes) > 0 {
		if err := s.Classes.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	classes := s.classSet()
	if s.BatchFraction > 0 {
		if _, ok := classes.Index(jobqueue.ClassBatch); !ok {
			return fmt.Errorf("scenario %s: batch_fraction %v needs a %q class in the set (have: %s)",
				s.Name, s.BatchFraction, jobqueue.ClassBatch, classes.Names())
		}
	}
	if s.SeedSpace == 0 {
		s.SeedSpace = 8
	}
	if _, err := jobqueue.ParseDequeuePolicy(s.DequeuePolicy); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if _, err := jobqueue.ParseAdmissionPolicy(s.AdmissionPolicy); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	for i, r := range s.Resizes {
		if r.AtJob < 0 || r.AtJob >= s.Jobs {
			return fmt.Errorf("scenario %s: resizes[%d]: at_job %d outside [0, %d)", s.Name, i, r.AtJob, s.Jobs)
		}
		if r.Shards < 1 || r.Shards > jobqueue.MaxShards {
			return fmt.Errorf("scenario %s: resizes[%d]: %d shards outside [1, %d]", s.Name, i, r.Shards, jobqueue.MaxShards)
		}
		if i > 0 && r.AtJob < s.Resizes[i-1].AtJob {
			return fmt.Errorf("scenario %s: resizes[%d]: at_job %d out of order (previous %d)", s.Name, i, r.AtJob, s.Resizes[i-1].AtJob)
		}
	}
	for i, e := range s.Mix {
		if e.Algorithm != "" && core.EnginesFor(e.Algorithm) == nil {
			return fmt.Errorf("scenario %s: mix[%d]: unknown algorithm %q", s.Name, i, e.Algorithm)
		}
		if e.Engine != "" {
			if _, err := core.ParseEngine(e.Engine); err != nil {
				return fmt.Errorf("scenario %s: mix[%d]: %v", s.Name, i, err)
			}
		}
		if e.Weight < 0 {
			return fmt.Errorf("scenario %s: mix[%d]: negative weight", s.Name, i)
		}
		if e.Priority != "" {
			if _, ok := classes.Index(e.Priority); !ok {
				return fmt.Errorf("scenario %s: mix[%d]: unknown priority %q (valid classes: %s)",
					s.Name, i, e.Priority, classes.Names())
			}
		}
	}
	if _, err := s.pairs(); err != nil {
		return err
	}
	return nil
}

// classSet is the effective priority-class set: the spec's own, or the
// queue default when none is declared.
func (s *Spec) classSet() jobqueue.ClassSet {
	if len(s.Classes) > 0 {
		return s.Classes
	}
	return jobqueue.DefaultClasses(0)
}

// pairs expands the mix into concrete weighted (algorithm, engine)
// slices, in deterministic catalogue order.
func (s *Spec) pairs() ([]pair, error) {
	mix := s.Mix
	if len(mix) == 0 {
		mix = []MixEntry{{}}
	}
	var out []pair
	for i, e := range mix {
		algos := []string{e.Algorithm}
		if e.Algorithm == "" {
			algos = core.Algorithms()
		}
		expanded := false
		for _, algo := range algos {
			engines := core.EnginesFor(algo)
			if e.Engine != "" {
				engines = []core.Engine{core.Engine(e.Engine)}
			}
			for _, eng := range engines {
				limit := core.MaxN(algo, eng)
				if limit == 0 {
					if e.Algorithm != "" && e.Engine != "" {
						return nil, fmt.Errorf("scenario %s: mix[%d]: %s does not run on engine %s", s.Name, i, algo, eng)
					}
					continue // wildcard expansion skips unsupported pairs
				}
				p := pair{algo: algo, engine: eng, weight: e.Weight, minN: e.MinN, maxN: e.MaxN, priority: e.Priority}
				if p.weight == 0 {
					p.weight = 1
				}
				if p.maxN <= 0 || p.maxN > limit {
					p.maxN = limit
					if e.MaxN <= 0 && p.maxN > sizeCap {
						p.maxN = sizeCap
					}
				}
				if p.minN <= 0 {
					p.minN = 16
				}
				if p.minN > p.maxN {
					p.minN = p.maxN
				}
				out = append(out, p)
				expanded = true
			}
		}
		if !expanded {
			return nil, fmt.Errorf("scenario %s: mix[%d] expands to no runnable (algorithm, engine) pair", s.Name, i)
		}
	}
	return out, nil
}

// Stream expands the scenario into the exact job sequence it denotes:
// Jobs specs in submission order, duplicates and priorities resolved.
// The stream is a pure function of the spec — same spec, same stream —
// which is what makes scenario replays comparable across runs and hosts.
func Stream(s Spec) ([]jobqueue.Spec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pairs, err := s.pairs()
	if err != nil {
		return nil, err
	}
	weights := make([]int, len(pairs))
	for i, p := range pairs {
		weights[i] = p.weight
	}
	// Unpinned entries default to the class set's first class, with the
	// BatchFraction roll (always drawn, so streams are byte-identical
	// across class configurations) diverting into the batch class.
	defaultClass := s.classSet()[0].Name
	r := workload.NewRNG(s.Seed)
	specs := make([]jobqueue.Spec, 0, s.Jobs)
	for len(specs) < s.Jobs {
		if len(specs) > 0 && r.Float64() < s.DupFraction {
			// Re-issue an earlier spec verbatim, class included.
			specs = append(specs, specs[r.Intn(len(specs))])
			continue
		}
		p := pairs[workload.Choice(r, weights)]
		class := p.priority
		if class == "" {
			class = defaultClass
			if r.Float64() < s.BatchFraction {
				class = jobqueue.ClassBatch
			}
		}
		specs = append(specs, jobqueue.Spec{
			Algorithm: p.algo,
			N:         workload.LogUniform(r, p.minN, p.maxN),
			Engine:    p.engine,
			Seed:      r.Uint64() % s.SeedSpace,
			Priority:  class,
			Timeout:   s.Timeout,
		})
	}
	return specs, nil
}

// QueueConfig returns the queue shape a standalone replay of the scenario
// should run against: the spec's shard/worker targets, a queue depth that
// accommodates the arrival process, and a result cache big enough that no
// key the scenario re-requests can be evicted — which is what pins the
// replay's hit rate to the spec instead of to cache timing.
func QueueConfig(s Spec) jobqueue.Config {
	// Fill defaults (notably Clients) so the depth math below sees the
	// same numbers Run will; an invalid spec is Run's error to report.
	_ = s.Validate()
	// The cache never-evicts guarantee must hold at every shard count
	// the replay passes through: size it for the widest table.
	shards := s.Shards
	if shards < 1 {
		shards = 1
	}
	for _, r := range s.Resizes {
		if r.Shards > shards {
			shards = r.Shards
		}
	}
	cfg := jobqueue.Config{
		Workers: s.Workers,
		Shards:  s.Shards,
		// The scenario's own class set (validated by Validate); nil
		// keeps the queue's default interactive/batch pair.
		Classes: append(jobqueue.ClassSet(nil), s.Classes...),
		// The scenario's decision policies; empty strings are the native
		// defaults (Validate already vetted the names).
		Policies: jobqueue.Policies{Dequeue: s.DequeuePolicy, Admission: s.AdmissionPolicy},
		// The queue slices the cache evenly per shard but key hashing
		// need not be even, so give every shard a full Jobs-sized slice:
		// then no shard can evict a key the scenario will re-request,
		// whatever the skew.
		CacheSize: shards * (s.Jobs + 64),
		// Scenarios probing deadlines declare their own Timeout; the
		// queue default only has to keep a hung replay from running
		// forever, so it stays far above any honest job's service time
		// (race-detector CI runs included).
		DefaultTimeout: 10 * time.Minute,
	}
	if s.Jobs+s.Clients > 1024 {
		cfg.QueueDepth = s.Jobs + s.Clients
	}
	return cfg
}
