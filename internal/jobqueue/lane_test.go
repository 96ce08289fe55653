package jobqueue

import (
	"testing"
	"time"
)

// TestLaneDisciplineTwoShards pops a two-shard backlog through dequeue
// from the test goroutine, with both workers held, and checks the lane
// discipline pop by pop: the strict lanes of both shards drain before
// any weighted lane; the home shard's lane goes before the other
// shard's, whose pops count as stolen by home; under default the lanes
// are FIFO by ID and the weighted classes take their DWRR shares; under
// edf each lane, the pooled weighted one included, pops in Before order.
func TestLaneDisciplineTwoShards(t *testing.T) {
	type pop struct {
		class Class
		shard int
	}
	for _, policy := range []string{"default", "edf"} {
		t.Run(policy, func(t *testing.T) {
			q := New(Config{Workers: 2, Shards: 2, QueueDepth: 64, CacheSize: -1,
				Policies: Policies{Dequeue: policy}, Classes: ClassSet{
					{Name: "gold", Weight: WeightStrict},
					{Name: "silver", Weight: 2},
					{Name: "bronze", Weight: 1},
				}})
			defer q.Close()
			release := blockWorkers(t, q, 2)
			defer release()

			// Strict jobs arrive last and the shards alternate, so neither
			// arrival order nor placement order matches the discipline.
			// Each weighted job's deadline is a second shorter than the
			// one before it: edf pops the weighted tier newest first.
			timeout := 100 * time.Second
			for _, c := range []struct {
				class Class
				count int
				n     int
			}{{"bronze", 2, 128}, {"silver", 4, 96}, {"gold", 2, 64}} {
				on := [2][]Spec{specsOnShard(0, 2, c.count, c.n, c.class), specsOnShard(1, 2, c.count, c.n, c.class)}
				for i := 0; i < c.count; i++ {
					for s := range on {
						spec := on[s][i]
						if c.class != "gold" {
							spec.Timeout = timeout
							timeout -= time.Second
						}
						if _, err := q.Submit(spec); err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			p := q.place.Load()
			home := p.shards[0]
			stolen := home.stolen.Load()
			credits := make([]int, len(q.classes.specs))
			rot := 0
			var got []pop
			var jobs []*Job
			for {
				owner, job := q.dequeue(p, home, credits, &rot)
				if job == nil {
					break
				}
				got = append(got, pop{job.Spec.Priority, owner.idx})
				jobs = append(jobs, job)
			}

			want := []pop{{"gold", 0}, {"gold", 0}, {"gold", 1}, {"gold", 1}}
			if policy == "default" {
				for _, s := range []int{0, 0, 1, 1} {
					want = append(want, pop{"silver", s}, pop{"silver", s}, pop{"bronze", s})
				}
			} else {
				for _, s := range []int{0, 1} {
					for i := 0; i < 6; i++ {
						want = append(want, pop{"", s})
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("popped %d jobs, want %d: %v", len(got), len(want), got)
			}
			for i := range want {
				if got[i].shard != want[i].shard || (want[i].class != "" && got[i].class != want[i].class) {
					t.Fatalf("pop %d is %v, want %v (order %v)", i, got[i], want[i], got)
				}
				if i >= 4 && got[i].class == "gold" {
					t.Fatalf("pop %d is a strict job after the weighted tier began (order %v)", i, got)
				}
			}
			if d := home.stolen.Load() - stolen; d != 8 {
				t.Errorf("home shard counted %d steals, want 8 (every pop from shard 1)", d)
			}

			// Within one lane of one shard the pops are in policy order:
			// FIFO by ID under default, Before order under edf, where the
			// shrinking deadlines make the weighted tier newest first.
			last := map[pop]*Job{}
			for i, job := range jobs {
				k := got[i]
				if policy == "edf" && k.class != "gold" {
					k.class = "weighted"
				}
				if prev := last[k]; prev != nil {
					if policy == "default" && job.ID < prev.ID {
						t.Errorf("%v popped ID %d after %d: not FIFO", k, job.ID, prev.ID)
					}
					if policy == "edf" {
						pv, jv := q.policyView(prev), q.policyView(job)
						if q.deq.Before(&jv, &pv) {
							t.Errorf("%v popped ID %d after %d, which it runs before", k, job.ID, prev.ID)
						}
						if k.class == "weighted" && job.ID > prev.ID {
							t.Errorf("%v popped ID %d after %d: edf followed arrival order", k, job.ID, prev.ID)
						}
					}
				}
				last[k] = job
			}
		})
	}
}

// TestFIFOLaneStaysBounded: a FIFO lane that never empties slides its
// queue down instead of growing its backing array, and keeps FIFO order.
func TestFIFOLaneStaysBounded(t *testing.T) {
	var l lane
	const live = 8
	for i := 0; i < live; i++ {
		l.push(laneItem{job: &Job{ID: uint64(i)}})
	}
	for i := live; i < 10000; i++ {
		l.push(laneItem{job: &Job{ID: uint64(i)}})
		if j := l.pop(); j.ID != uint64(i-live) {
			t.Fatalf("popped ID %d, want %d", j.ID, i-live)
		}
	}
	if n := l.n.Load(); n != live {
		t.Errorf("lane holds %d jobs, want %d", n, live)
	}
	if c := cap(l.items); c > 2*live {
		t.Errorf("backing array grew to %d slots for %d queued jobs", c, live)
	}
}
