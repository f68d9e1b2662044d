// Package eiotest provides a systematic fault-sweep harness for the index
// structures built on eio: it runs a scripted workload once to count its
// store operations, then re-runs it once per operation with exactly that
// operation failing, asserting that the structure surfaces the injected
// error (wrapping eio.ErrInjected), never panics, and — where the workload
// promises it — remains readable after the fault.
//
// This turns "what happens when I/O k fails?" from an anecdote exercised
// by a couple of hand-picked tests into a property checked for every I/O
// a workload performs.
package eiotest

import (
	"errors"
	"fmt"
	"runtime/debug"
	"testing"

	"rangesearch/internal/eio"
)

// Workload is a deterministic script run against a fresh store.
type Workload struct {
	// Name labels sweep sub-tests.
	Name string
	// PageSize is the page size of the fresh MemStore given to each run.
	PageSize int
	// Run executes the workload against st. It must be deterministic (same
	// sequence of store operations every run) and must return the first
	// error it sees unswallowed.
	//
	// The returned check function revalidates the structure (queries,
	// invariants); Run should set it as soon as the structure reaches a
	// usable state, so that a later fault can be followed by a readability
	// check. It may be nil if the structure never got that far.
	Run func(st eio.Store) (check func() error, err error)
	// Strict makes a failing post-fault check fatal. Without it the check
	// must merely not panic; errors are logged, since a fault in the
	// middle of a multi-page update can legitimately leave a structure
	// needing recovery. Structures that claim fail-stop readability set
	// Strict.
	Strict bool
	// MaxRuns caps the number of sweep iterations; when the workload
	// performs more operations than this, the sweep samples operation
	// indices evenly (always including the first and last). 0 means the
	// package default (400).
	MaxRuns int
	// Ops, when set, is the operation count the sweep is laid out for.
	// Sub-test names are operation indices, and under sampling every index
	// depends on the total, so the names (and the history of any one of
	// them) only stay put while the total does. When a change makes the
	// structure do less I/O for the same script, lengthen the script to
	// just under Ops; the sweep tops the run up to exactly Ops with
	// single-page reads, each of which must surface its fault like any
	// other operation. A script that performs more than Ops fails the
	// sweep: trim it, or re-lay the sweep by raising Ops.
	Ops int
}

// defaultMaxRuns bounds sweep time for op-heavy workloads.
const defaultMaxRuns = 400

// Sweep runs w once per store operation with that operation failing.
func Sweep(t *testing.T, w Workload) {
	t.Helper()

	// Baseline: the workload must pass with faults disarmed, and tells us
	// how many operations there are to sweep over.
	f := eio.NewFaultStore(eio.NewMemStore(w.PageSize))
	check, err := runGuarded(w, f)
	if err != nil {
		t.Fatalf("%s: baseline run failed: %v", w.Name, err)
	}
	if check == nil {
		t.Fatalf("%s: baseline run returned no check function", w.Name)
	}
	// Count ops before the baseline check: sweep runs execute only Run, so
	// the sweep range must cover exactly Run's operations.
	total := int(f.Ops())
	if err := check(); err != nil {
		t.Fatalf("%s: baseline check failed: %v", w.Name, err)
	}
	if total == 0 {
		t.Fatalf("%s: workload performed no store operations", w.Name)
	}
	if w.Ops > 0 && total != w.Ops {
		t.Fatalf("%s: the script performs %d store operations, the sweep is laid out for %d", w.Name, total, w.Ops)
	}

	ks := sampleOps(total, w.MaxRuns)
	t.Logf("%s: sweeping %d of %d operations", w.Name, len(ks), total)
	for _, k := range ks {
		k := k
		t.Run(fmt.Sprintf("%s/op%d", w.Name, k), func(t *testing.T) {
			sweepOne(t, w, k)
		})
	}
}

// sweepOne runs the workload with operation k failing and asserts the
// fault contract.
func sweepOne(t *testing.T, w Workload, k int) {
	t.Helper()
	f := eio.NewFaultStore(eio.NewMemStore(w.PageSize))
	f.FailNth(k)
	check, err := runGuarded(w, f)
	if err == nil {
		t.Fatalf("fault at op %d was swallowed: workload reported success\ntrace: %v", k, f.Trace())
	}
	var pe panicError
	if errors.As(err, &pe) {
		t.Fatalf("panic with fault at op %d: %v\n%s", k, pe.value, pe.stack)
	}
	if !errors.Is(err, eio.ErrInjected) {
		t.Fatalf("fault at op %d surfaced as a non-injected error: %v\ntrace: %v", k, err, f.Trace())
	}
	if check == nil {
		return // structure never reached a usable state; nothing to revalidate
	}
	// The injected one-shot fault has auto-disarmed; the structure must
	// still be readable (or at minimum must not panic).
	cerr := checkGuarded(check)
	if cerr == nil {
		return
	}
	if errors.As(cerr, &pe) {
		t.Fatalf("panic in post-fault check (fault at op %d): %v\n%s", k, pe.value, pe.stack)
	}
	if w.Strict {
		t.Fatalf("post-fault check failed (fault at op %d): %v\ntrace: %v", k, cerr, f.Trace())
	}
	t.Logf("post-fault check degraded (fault at op %d, non-strict): %v", k, cerr)
}

// panicError carries a recovered panic through the error return.
type panicError struct {
	value any
	stack []byte
}

func (p panicError) Error() string { return fmt.Sprintf("panic: %v", p.value) }

// runGuarded invokes w.Run converting panics into errors, so the sweep can
// report them with the failing operation index instead of dying.
func runGuarded(w Workload, st *eio.FaultStore) (check func() error, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError{value: r, stack: debug.Stack()}
		}
	}()
	if check, err = w.Run(st); err != nil || int(st.Ops()) >= w.Ops {
		return check, err
	}
	// Top the run up to w.Ops (see Workload.Ops).
	ids, err := st.LivePageIDs()
	if err != nil || len(ids) == 0 {
		return check, fmt.Errorf("%s: no live page to top the run up with: %v", w.Name, err)
	}
	buf := make([]byte, st.PageSize())
	for int(st.Ops()) < w.Ops {
		if err := st.Read(ids[0], buf); err != nil {
			return check, err
		}
	}
	return check, nil
}

// checkGuarded invokes check converting panics into errors.
func checkGuarded(check func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError{value: r, stack: debug.Stack()}
		}
	}()
	return check()
}

// sampleOps returns the operation indices to sweep: all of 1..total when
// it fits the cap, otherwise an even sample including 1 and total.
func sampleOps(total, maxRuns int) []int {
	if maxRuns <= 0 {
		maxRuns = defaultMaxRuns
	}
	if total <= maxRuns {
		ks := make([]int, total)
		for i := range ks {
			ks[i] = i + 1
		}
		return ks
	}
	ks := make([]int, 0, maxRuns)
	last := 0
	for i := 0; i < maxRuns; i++ {
		// Evenly spaced over [1, total], biased to hit both ends.
		k := 1 + i*(total-1)/(maxRuns-1)
		if k != last {
			ks = append(ks, k)
			last = k
		}
	}
	return ks
}
