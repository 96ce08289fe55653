package jobqueue

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrUnknownPolicy reports a dequeue or admission policy name outside
// the shipped registry. The error message lists the valid names, the
// same contract ErrUnknownClass keeps for class names.
var ErrUnknownPolicy = errors.New("jobqueue: unknown policy")

// ErrDeadlineInfeasible reports an admission-time load shed: the
// admission policy predicted the job cannot finish inside its deadline
// (predicted cost exceeds the remaining budget), so it was rejected at
// submit instead of admitted to time out. Counted as a rejection.
var ErrDeadlineInfeasible = errors.New("jobqueue: predicted cost exceeds the job's deadline")

// CostEstimate is the cost model's prediction for a queued job, carried
// into policy decisions. Units are the predictor's abstract work units
// (internal/jobcost: exact up to a per-engine constant); Wall is the
// calibrated wall-clock prediction at the queue's current per-engine
// scale. Known is false for jobs outside the model (func jobs, unknown
// algorithm/engine pairs) — policies must treat those as unordered, not
// free.
type CostEstimate struct {
	Known bool
	Units float64
	Wall  time.Duration
}

// JobView is the read-only projection of one queued job that a
// DequeuePolicy ranks. It is built by the queue once, at enqueue, from
// state the job already carries; a policy must not retain the pointer
// past the Before call or mutate anything reachable from it.
type JobView struct {
	// ID carries the global submission sequence in its high bits, so
	// comparing IDs compares arrival order queue-wide.
	ID uint64
	// Class is the job's class-set position, ClassName its name.
	Class     int
	ClassName Class
	// Submitted is the job's arrival time.
	Submitted time.Time
	// Deadline is the job's effective execution budget: the spec's
	// timeout, its class default, or the queue default — whichever
	// resolved at submit. Always positive for queue-built views.
	Deadline time.Duration
	// Cost is the cost model's prediction (zero value when the queue
	// runs without a cost-consuming policy).
	Cost CostEstimate
}

// DequeuePolicy orders the runnable jobs a worker chooses among. The
// queue consults it only inside class tiers the discipline defines:
// strict classes always outrank weighted ones and each other in set
// order regardless of policy, and the policy's Before orders jobs
// within one strict class and across the pooled weighted classes. The
// order is per shard: each shard's lanes are heaps by Before, and a
// worker takes its home shard's best job before it steals another
// shard's best. See ARCHITECTURE.md for the full contract (purity,
// epoch interaction).
//
// Before must be a pure, deterministic strict weak ordering: given the
// same two views it must always return the same answer, and it must
// never report both Before(a, b) and Before(b, a). Implementations must
// not mutate the views, block, or read queue state beyond them.
//
// The "default" policy is special: the queue recognizes it and keeps
// plain FIFO lanes, one per class, with the weighted classes sharing
// dequeues in weight proportion (DWRR), byte-identical to the
// pre-policy queue. Every other policy pools the weighted classes into
// one lane ordered by Before; DWRR weights are not honored under an
// ordering policy.
type DequeuePolicy interface {
	// Name returns the policy's registry name.
	Name() string
	// Before reports whether a should run before b.
	Before(a, b *JobView) bool
}

// AdmissionRequest is the state an AdmissionPolicy sees for one submit.
type AdmissionRequest struct {
	// Class is the job's class-set position, ClassName its name.
	Class     int
	ClassName Class
	// LaneUsed is the class lane's current admitted-but-not-started
	// count on the target shard; LaneDepth is the lane's admission
	// bound. The queue enforces LaneUsed < LaneDepth itself before the
	// policy runs — a policy can only be more restrictive, never admit
	// past the structural bound.
	LaneUsed  int
	LaneDepth int
	// Deadline is the job's effective execution budget (see
	// JobView.Deadline).
	Deadline time.Duration
	// Cost is the cost model's prediction for the job.
	Cost CostEstimate
	// Now is the submission's arrival time.
	Now time.Time
}

// AdmissionPolicy decides at submit whether a job is admitted. A nil
// return admits; a non-nil return rejects with that error (wrap
// ErrQueueFull for capacity/rate refusals, ErrDeadlineInfeasible for
// deadline sheds, so callers can classify). A rejecting Admit must not
// consume budget: retrying the identical request at the same Now must
// yield the identical decision.
type AdmissionPolicy interface {
	// Name returns the policy's registry name.
	Name() string
	// Admit returns nil to admit the job or the rejection error.
	Admit(req AdmissionRequest) error
}

// Policies selects the queue's decision layer. Zero value = the default
// native behavior (strict-then-DWRR dequeue, lane-quota admission),
// byte-identical to the pre-policy queue.
type Policies struct {
	// Dequeue and Admission name shipped policies —
	// DequeuePolicyNames / AdmissionPolicyNames list the valid names.
	// Empty means "default". New panics on unknown names (a
	// configuration programming error); validate user input with
	// ParseDequeuePolicy / ParseAdmissionPolicy first.
	Dequeue   string
	Admission string
	// DequeuePolicy / AdmissionPolicy inject custom implementations,
	// overriding the names when non-nil.
	DequeuePolicy   DequeuePolicy
	AdmissionPolicy AdmissionPolicy
}

// resolve returns the runtime policy instances: nil dequeue/admission
// mean "run the native default path" (FIFO lanes with no Before calls,
// and the inlined lane-quota check, so selecting the default policies
// costs nothing over the pre-policy queue).
func (p Policies) resolve() (DequeuePolicy, AdmissionPolicy, error) {
	deq := p.DequeuePolicy
	if deq == nil {
		d, err := ParseDequeuePolicy(p.Dequeue)
		if err != nil {
			return nil, nil, err
		}
		deq = d
	}
	adm := p.AdmissionPolicy
	if adm == nil {
		a, err := ParseAdmissionPolicy(p.Admission)
		if err != nil {
			return nil, nil, err
		}
		adm = a
	}
	if _, ok := deq.(DefaultDequeue); ok {
		deq = nil
	}
	if _, ok := adm.(QuotaAdmission); ok {
		adm = nil
	}
	return deq, adm, nil
}

// DequeuePolicyNames lists the shipped dequeue policies in registry
// order — the valid values for Policies.Dequeue, the lopramd
// -dequeue-policy flag and scenario dequeue_policy fields.
func DequeuePolicyNames() []string {
	return []string{"default", "fcfs", "sjf", "edf"}
}

// AdmissionPolicyNames lists the shipped admission policies — the valid
// values for Policies.Admission and the corresponding flag/scenario
// fields. "token-bucket" accepts optional parameters as
// token-bucket:RATE:BURST (tokens/sec per class, bucket capacity).
func AdmissionPolicyNames() []string {
	return []string{"default", "token-bucket"}
}

// ParseDequeuePolicy resolves a dequeue policy name ("" means
// "default"). Unknown names fail with ErrUnknownPolicy listing the
// valid names — the validation layer for user-supplied input (flags,
// HTTP, scenario specs).
func ParseDequeuePolicy(name string) (DequeuePolicy, error) {
	switch name {
	case "", "default":
		return DefaultDequeue{}, nil
	case "fcfs":
		return FCFSDequeue{}, nil
	case "sjf":
		return SJFDequeue{}, nil
	case "edf":
		return EDFDequeue{}, nil
	}
	return nil, fmt.Errorf("%w %q (valid dequeue policies: %s)",
		ErrUnknownPolicy, name, strings.Join(DequeuePolicyNames(), ", "))
}

// ParseAdmissionPolicy resolves an admission policy spec ("" means
// "default"; "token-bucket" takes optional :RATE and :BURST fields).
// Unknown names fail with ErrUnknownPolicy listing the valid names.
func ParseAdmissionPolicy(spec string) (AdmissionPolicy, error) {
	name, rest, _ := strings.Cut(spec, ":")
	switch name {
	case "", "default":
		if rest != "" {
			return nil, fmt.Errorf("jobqueue: admission policy %q takes no parameters", name)
		}
		return QuotaAdmission{}, nil
	case "token-bucket":
		rate, burst := DefaultTokenRate, DefaultTokenBurst
		if rest != "" {
			parts := strings.Split(rest, ":")
			if len(parts) > 2 {
				return nil, fmt.Errorf("jobqueue: admission policy %q: want token-bucket[:RATE[:BURST]]", spec)
			}
			r, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
			if err != nil || r <= 0 {
				return nil, fmt.Errorf("jobqueue: admission policy %q: bad rate %q", spec, parts[0])
			}
			rate = r
			if len(parts) == 2 {
				b, err := strconv.Atoi(strings.TrimSpace(parts[1]))
				if err != nil || b < 1 {
					return nil, fmt.Errorf("jobqueue: admission policy %q: bad burst %q", spec, parts[1])
				}
				burst = b
			}
		}
		return NewTokenBucketAdmission(rate, burst), nil
	}
	return nil, fmt.Errorf("%w %q (valid admission policies: %s)",
		ErrUnknownPolicy, name, strings.Join(AdmissionPolicyNames(), ", "))
}

// ---- dequeue policies ----

// DefaultDequeue is the "default" dequeue policy: the queue's native
// strict-then-DWRR discipline. The queue recognizes this type and keeps
// one FIFO lane per class (weighted classes share dequeues in weight
// proportion, strict classes drain first), so selecting it is
// byte-identical to the pre-policy queue. Its Before is the
// within-class arrival order (FIFO by ID), which is what the FIFO lanes
// deliver.
type DefaultDequeue struct{}

// Name returns "default".
func (DefaultDequeue) Name() string { return "default" }

// Before orders by arrival (ID).
func (DefaultDequeue) Before(a, b *JobView) bool { return a.ID < b.ID }

// FCFSDequeue runs jobs strictly in arrival order within each tier —
// the classic first-come-first-served baseline the SJF/EDF hypotheses
// are measured against.
type FCFSDequeue struct{}

// Name returns "fcfs".
func (FCFSDequeue) Name() string { return "fcfs" }

// Before orders by arrival (ID).
func (FCFSDequeue) Before(a, b *JobView) bool { return a.ID < b.ID }

// SJFDequeue is shortest-predicted-job-first: jobs are ordered by the
// cost model's calibrated wall prediction (falling back to raw units,
// then to arrival order for unknown costs, which sort after every known
// one). Minimizes mean wait under backlog when the oracle is right.
type SJFDequeue struct{}

// Name returns "sjf".
func (SJFDequeue) Name() string { return "sjf" }

// sjfKey is the policy's sort key: predicted wall ns when calibrated,
// raw units otherwise, +Inf for unknown costs.
func sjfKey(v *JobView) float64 {
	if !v.Cost.Known {
		return inf
	}
	if v.Cost.Wall > 0 {
		return float64(v.Cost.Wall)
	}
	return v.Cost.Units
}

var inf = float64(1 << 62) // effectively +Inf, avoids math import

// Before orders by predicted cost, ties by arrival.
func (SJFDequeue) Before(a, b *JobView) bool {
	ka, kb := sjfKey(a), sjfKey(b)
	if ka != kb {
		return ka < kb
	}
	return a.ID < b.ID
}

// EDFDequeue is earliest-deadline-first: jobs are ordered by absolute
// deadline (arrival + effective budget); jobs without a deadline sort
// after every deadlined one. Minimizes deadline misses under backlog
// when deadlines are feasible.
type EDFDequeue struct{}

// Name returns "edf".
func (EDFDequeue) Name() string { return "edf" }

// Before orders by absolute deadline, ties by arrival.
func (EDFDequeue) Before(a, b *JobView) bool {
	da, db := a.Deadline > 0, b.Deadline > 0
	switch {
	case da && !db:
		return true
	case !da && db:
		return false
	case da && db:
		ta, tb := a.Submitted.Add(a.Deadline), b.Submitted.Add(b.Deadline)
		if !ta.Equal(tb) {
			return ta.Before(tb)
		}
	}
	return a.ID < b.ID
}

// ---- admission policies ----

// QuotaAdmission is the "default" admission policy: admit while the
// class lane has room, reject with ErrQueueFull at the lane bound —
// exactly the static-quota rule the queue enforces structurally. The
// queue recognizes this type and keeps the original inlined check, so
// selecting it is byte-identical to the pre-policy queue.
type QuotaAdmission struct{}

// Name returns "default".
func (QuotaAdmission) Name() string { return "default" }

// Admit rejects at the lane bound, admits otherwise.
func (QuotaAdmission) Admit(req AdmissionRequest) error {
	if req.LaneUsed >= req.LaneDepth {
		return ErrQueueFull
	}
	return nil
}

// Token-bucket defaults when the flag/scenario spec gives none: 256
// admissions/sec with a burst of 64 per class — permissive enough that
// a scenario below saturation is untouched, tight enough that a
// deliberate storm trips it.
const (
	DefaultTokenRate  = 256.0
	DefaultTokenBurst = 64
)

// TokenBucketAdmission rate-limits admissions per class with a token
// bucket and sheds deadline-infeasible jobs: a job whose predicted wall
// time already exceeds its deadline budget is rejected at submit
// (ErrDeadlineInfeasible) instead of admitted to burn a worker and time
// out. Rejections never consume tokens, so a refused retry at the same
// instant gets the same answer. Construct with NewTokenBucketAdmission.
type TokenBucketAdmission struct {
	rate  float64 // tokens per second, per class
	burst float64 // bucket capacity

	mu      sync.Mutex
	buckets map[int]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// NewTokenBucketAdmission returns a token-bucket admission policy with
// the given per-class refill rate (tokens/sec) and bucket capacity.
// Non-positive parameters select the defaults.
func NewTokenBucketAdmission(rate float64, burst int) *TokenBucketAdmission {
	if rate <= 0 {
		rate = DefaultTokenRate
	}
	if burst < 1 {
		burst = DefaultTokenBurst
	}
	return &TokenBucketAdmission{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[int]*tokenBucket),
	}
}

// Name returns "token-bucket".
func (p *TokenBucketAdmission) Name() string { return "token-bucket" }

// Admit applies, in order: the structural lane bound (ErrQueueFull),
// the deadline-infeasibility shed (ErrDeadlineInfeasible), and the
// class's token bucket (ErrQueueFull when empty; one token consumed
// only on admission).
func (p *TokenBucketAdmission) Admit(req AdmissionRequest) error {
	if req.LaneUsed >= req.LaneDepth {
		return ErrQueueFull
	}
	if req.Deadline > 0 && req.Cost.Known && req.Cost.Wall > req.Deadline {
		return fmt.Errorf("%w (predicted %v > deadline %v)",
			ErrDeadlineInfeasible, req.Cost.Wall.Round(time.Microsecond), req.Deadline)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.buckets[req.Class]
	if b == nil {
		b = &tokenBucket{tokens: p.burst, last: req.Now}
		p.buckets[req.Class] = b
	}
	if req.Now.After(b.last) {
		b.tokens += req.Now.Sub(b.last).Seconds() * p.rate
		if b.tokens > p.burst {
			b.tokens = p.burst
		}
		b.last = req.Now
	}
	if b.tokens < 1 {
		return fmt.Errorf("jobqueue: class %q over its admission rate: %w", req.ClassName, ErrQueueFull)
	}
	b.tokens--
	return nil
}
