package scenario

// The policy-hypothesis suite: executable checks of the scheduling
// claims the policy layer is built on, on deterministic job streams (only
// placement and timing vary between replays). What a policy decides —
// who is served and in what order — is asserted exactly, per seed; what
// that buys in wall-clock outcomes is compared per seed as well:
//
//   - liveness: below saturation, every policy serves every submission —
//     nothing is starved, rejected or timed out;
//   - SJF runs queued small jobs before large ones, and so beats FCFS on
//     mean wait under a heavy-tailed size mix;
//   - EDF never starts relaxed work while urgent work is queued, and so
//     beats FCFS and the native discipline on response-time deadline
//     misses when urgent and relaxed traffic share one queue.
//
// The workloads are sized so the differentiation is structural (orders
// of magnitude of backlog), not a timing coincidence: a slower or faster
// host moves the numbers, not the inequalities.

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"lopram/internal/jobqueue"
	"lopram/internal/jobtrace"
)

// runPolicyReplay replays sp on a fresh queue under the named dequeue
// policy and returns the report plus every completion record.
func runPolicyReplay(t *testing.T, sp Spec, policy string) (Report, []jobtrace.Record) {
	t.Helper()
	sp.DequeuePolicy = policy
	var sink jobtrace.MemorySink
	cfg := QueueConfig(sp)
	cfg.TraceSink = &sink
	q := jobqueue.New(cfg)
	rep, err := Run(context.Background(), q, sp)
	// Close drains the flight recorder before Records is read.
	q.Close()
	if err != nil {
		t.Fatalf("scenario %s under %s: %v", sp.Name, policy, err)
	}
	return rep, sink.Records()
}

// hypothesisSeeds: every hypothesis must hold strictly at each of these
// stream seeds, not on average over them.
var hypothesisSeeds = []uint64{2, 7, 13}

// TestHypothesisPolicyLiveness: below saturation every dequeue policy —
// and the token-bucket admission under its default budget — serves the
// complete stream: no rejection, no failure, no timeout, and the
// recorder accounts for every submission. This is the no-starvation
// bound: even the job a policy ranks last is served once the queue
// drains, because policies only order the backlog, never drop from it.
func TestHypothesisPolicyLiveness(t *testing.T) {
	base := Spec{
		Name:      "liveness-mix",
		Jobs:      32,
		Clients:   8,
		SeedSpace: 1 << 20,
		Mix: []MixEntry{
			{Algorithm: "reduce", Engine: "palrt", Weight: 4, MinN: 64, MaxN: 1 << 12},
			{Algorithm: "mergesort", Engine: "palrt", Weight: 1, MinN: 1 << 14, MaxN: 1 << 16},
		},
		Workers: 2,
		Shards:  2,
	}
	for _, policy := range jobqueue.DequeuePolicyNames() {
		t.Run(policy, func(t *testing.T) {
			for _, seed := range hypothesisSeeds {
				sp := deepCopy(base)
				sp.Seed = seed
				// The default token budget (256/s, burst 64) is above this
				// stream's arrival rate, so admission must stay invisible.
				sp.AdmissionPolicy = "token-bucket"
				rep, recs := runPolicyReplay(t, sp, policy)
				if rep.Jobs != sp.Jobs || rep.Rejected != 0 || rep.Failures != 0 || rep.Timeouts != 0 {
					t.Fatalf("seed %d: jobs %d/%d, rejected %d, failures %d, timeouts %d — starved or shed below saturation",
						seed, rep.Jobs, sp.Jobs, rep.Rejected, rep.Failures, rep.Timeouts)
				}
				if len(recs) != sp.Jobs {
					t.Fatalf("seed %d: recorder saw %d of %d submissions", seed, len(recs), sp.Jobs)
				}
				for _, r := range recs {
					if r.Disposition == jobtrace.DispositionRejected {
						t.Fatalf("seed %d: %s rejected below saturation", seed, r.Key)
					}
				}
			}
		})
	}
}

// meanExecutedWait averages queueing latency over the records that
// actually ran (hits and coalesces wait on the original run, not in a
// lane, so they would dilute both sides of the comparison equally).
func meanExecutedWait(t *testing.T, recs []jobtrace.Record) float64 {
	t.Helper()
	var sum float64
	var n int
	for _, r := range recs {
		if r.Executed() {
			sum += r.WaitMS
			n++
		}
	}
	if n == 0 {
		t.Fatal("no executed records")
	}
	return sum / float64(n)
}

// orderViolations checks a policy's deterministic ordering promise on
// one worker's trace: no job outside the favored set (favored false)
// starts while a favored job is queued. Executed records are walked in
// start order (one worker: start order is dequeue order). Job IDs are
// assigned under the shard lock at admission, so by the time the k-th
// job starts, every job with an ID below the largest ID started so far
// is provably admitted. An unfavored start that leaves such a favored job
// waiting is a violation; the returned strings name each one.
func orderViolations(recs []jobtrace.Record, favored func(jobtrace.Record) bool) []string {
	var runs []jobtrace.Record
	for _, r := range recs {
		if r.Executed() {
			runs = append(runs, r)
		}
	}
	sort.Slice(runs, func(a, b int) bool { return runs[a].StartNS < runs[b].StartNS })
	var bad []string
	var maxID uint64
	for k, r := range runs {
		maxID = max(maxID, r.ID)
		if favored(r) {
			continue
		}
		for _, f := range runs[k+1:] {
			if favored(f) && f.ID < maxID {
				bad = append(bad, fmt.Sprintf("%s (id %d) started while %s (id %d) was queued", r.Key, r.ID, f.Key, f.ID))
			}
		}
	}
	return bad
}

// TestHypothesisSJFBeatsFCFSMeanWait: on a heavy-tailed mix — many
// small reductions, a few sorts three orders of magnitude larger — the
// predicted-cost SJF policy runs the cheap work first: per seed, no sort
// starts while a reduction is queued (orderViolations). Under FCFS the
// small jobs queue behind whichever giant arrived first, so SJF must
// deliver a strictly lower mean wait, per seed.
func TestHypothesisSJFBeatsFCFSMeanWait(t *testing.T) {
	base := Spec{
		Name:      "sjf-heavy-tail",
		Jobs:      24,
		Clients:   8,
		SeedSpace: 1 << 20,
		Mix: []MixEntry{
			{Algorithm: "reduce", Engine: "palrt", Weight: 6, MinN: 64, MaxN: 1 << 10},
			{Algorithm: "mergesort", Engine: "palrt", Weight: 1, MinN: 1 << 17, MaxN: 1 << 18},
		},
		// One worker, one shard: pure queueing discipline, no placement
		// or stealing noise in the comparison.
		Workers: 1,
		Shards:  1,
	}
	small := func(r jobtrace.Record) bool { return r.Algorithm == "reduce" }
	for _, seed := range hypothesisSeeds {
		sp := deepCopy(base)
		sp.Seed = seed
		_, fcfsRecs := runPolicyReplay(t, sp, "fcfs")
		sp = deepCopy(base)
		sp.Seed = seed
		_, sjfRecs := runPolicyReplay(t, sp, "sjf")
		for _, v := range orderViolations(sjfRecs, small) {
			t.Errorf("seed %d: SJF %s", seed, v)
		}
		fcfs := meanExecutedWait(t, fcfsRecs)
		sjf := meanExecutedWait(t, sjfRecs)
		t.Logf("seed %d: mean executed wait fcfs %.2fms, sjf %.2fms", seed, fcfs, sjf)
		if sjf >= fcfs {
			t.Errorf("seed %d: SJF mean wait %.2fms not below FCFS %.2fms on a heavy tail", seed, sjf, fcfs)
		}
	}
}

// deadlineMisses counts response-time deadline misses: submissions
// whose submit→finish span exceeded their class's deadline. This is
// the client-visible miss (queueing included), not the queue's
// execution timeout — which must never fire here, or the policies
// would be compared on truncated runs.
func deadlineMisses(t *testing.T, recs []jobtrace.Record, deadlines map[string]time.Duration) int {
	t.Helper()
	misses := 0
	for _, r := range recs {
		if r.Outcome == jobtrace.OutcomeTimeout {
			t.Fatalf("%s hit its execution timeout; the deadline mix must stay execution-feasible", r.Key)
		}
		d, ok := deadlines[r.Class]
		if !ok {
			t.Fatalf("record %s in unexpected class %q", r.Key, r.Class)
		}
		if r.FinishNS == 0 {
			continue // served instantly (cache hit) — cannot miss
		}
		if time.Duration(r.FinishNS-r.SubmitNS) > d {
			misses++
		}
	}
	return misses
}

// TestHypothesisEDFBeatsFCFSAndDefaultOnMisses: when urgent traffic
// (tight per-class deadline, tiny jobs) shares one worker with relaxed
// traffic (loose deadline, jobs two orders heavier), EDF serves whatever
// deadline expires first, so an urgent job overtakes every queued sort
// and at most awaits one residual run. The ordering is asserted exactly
// from the trace (orderViolations), per seed. Response-time deadline
// misses also depend on host speed, so they are compared only where the
// baseline misses at all: there EDF must miss strictly fewer than FCFS
// (urgent jobs wait out the full backlog) and than the native weighted
// discipline (the urgent class gets only its weight share).
func TestHypothesisEDFBeatsFCFSAndDefaultOnMisses(t *testing.T) {
	const urgentDeadline = 75 * time.Millisecond
	const relaxedDeadline = 30 * time.Second
	deadlines := map[string]time.Duration{"urgent": urgentDeadline, "relaxed": relaxedDeadline}
	base := Spec{
		Name:      "deadline-mix",
		Jobs:      36,
		Clients:   12,
		SeedSpace: 1 << 20,
		// Both classes weighted (no strict tier): the policies alone
		// decide who goes first, which is exactly what is under test.
		// The class deadlines are execution budgets too, so they must —
		// and do — sit far above each class's actual service time.
		Classes: jobqueue.ClassSet{
			{Name: "urgent", Weight: 1, DefaultDeadline: urgentDeadline},
			{Name: "relaxed", Weight: 1, DefaultDeadline: relaxedDeadline},
		},
		Mix: []MixEntry{
			{Algorithm: "reduce", Engine: "sim", Weight: 1, MinN: 64, MaxN: 256, Priority: "urgent"},
			{Algorithm: "mergesort", Engine: "palrt", Weight: 1, MinN: 1 << 17, MaxN: 1 << 18, Priority: "relaxed"},
		},
		Workers: 1,
		Shards:  1,
	}
	for _, seed := range hypothesisSeeds {
		replay := func(policy string) []jobtrace.Record {
			sp := deepCopy(base)
			sp.Seed = seed
			_, recs := runPolicyReplay(t, sp, policy)
			return recs
		}
		edfRecs := replay("edf")
		urgent := func(r jobtrace.Record) bool { return r.Class == "urgent" }
		for _, v := range orderViolations(edfRecs, urgent) {
			t.Errorf("seed %d: EDF %s", seed, v)
		}
		edf := deadlineMisses(t, edfRecs, deadlines)
		fcfs := deadlineMisses(t, replay("fcfs"), deadlines)
		def := deadlineMisses(t, replay("default"), deadlines)
		t.Logf("seed %d: deadline misses edf %d, fcfs %d, default %d", seed, edf, fcfs, def)
		if fcfs > 0 && edf >= fcfs {
			t.Errorf("seed %d: EDF misses %d not below FCFS %d", seed, edf, fcfs)
		}
		if def > 0 && edf >= def {
			t.Errorf("seed %d: EDF misses %d not below the native discipline's %d", seed, edf, def)
		}
	}
}
