package sim

import "lopram/internal/crew"

// CREW shared-memory integration (§3): a Machine can carry an audited
// crew.Memory whose epoch tracks the simulated clock. Threads access it
// through TC.Read/TC.Write, which stamp every access with the issuing
// processor and the current step, so the auditor sees exactly the
// concurrency the schedule produces: two threads touching the same cell in
// the same step with at least one write is a CREW violation — the paper's
// undefined behaviour, surfaced as a recorded violation or a panic depending
// on the memory's policy.
//
// Accesses are instantaneous bookkeeping on top of the declared Work cost:
// the program's cost model decides how many steps a memory-touching phase
// takes, matching how the paper's analyses charge time.

// AttachMemory equips the machine with an audited shared memory of the given
// word size and violation policy. It must be called before Run; the memory
// is reset (reallocated) at each Run. It returns the machine for chaining.
func (m *Machine) AttachMemory(words int, policy crew.Policy) *Machine {
	m.memWords = words
	m.memPolicy = policy
	return m
}

// Memory returns the attached memory of the current/last run, or nil.
func (m *Machine) Memory() *crew.Memory { return m.mem }

// syncMemEpoch brings the audited memory's epoch up to the simulator clock.
func (m *Machine) syncMemEpoch() {
	if m.mem == nil {
		return
	}
	for m.mem.Epoch() < m.now {
		m.mem.Tick()
	}
}

// Read returns the value at addr of the machine's shared memory, audited
// against the thread's processor at the current step. It panics if no
// memory is attached.
func (tc *TC) Read(addr int) int64 {
	m := tc.co.m
	if m.mem == nil {
		panic("sim: no shared memory attached (use Machine.AttachMemory)")
	}
	m.syncMemEpoch()
	return m.mem.Read(tc.auditProc(), addr)
}

// Write stores v at addr of the machine's shared memory, audited against
// the thread's processor at the current step.
func (tc *TC) Write(addr int, v int64) {
	m := tc.co.m
	if m.mem == nil {
		panic("sim: no shared memory attached (use Machine.AttachMemory)")
	}
	m.syncMemEpoch()
	m.mem.Write(tc.auditProc(), addr, v)
}

// auditProc returns the auditing processor id for the thread: its dedicated
// processor for pal-threads, or a stable pseudo-processor id for standard
// threads (which hold no fixed processor; using the thread id beyond the
// machine's processor range keeps distinct standard threads distinct for
// the auditor without colliding with pal processors).
func (tc *TC) auditProc() int {
	if tc.proc >= 0 {
		return int(tc.proc)
	}
	return tc.co.m.p + int(tc.id)
}
