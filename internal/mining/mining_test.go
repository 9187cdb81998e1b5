package mining

import (
	"testing"

	"repro/internal/guard"
	"repro/internal/obs"
)

func TestNilControlNeverCancels(t *testing.T) {
	var c *Control
	for i := 0; i < 3; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal("nil control must not cancel")
		}
	}
	if c.Canceled() {
		t.Fatal("nil control must not be canceled")
	}
	c2 := NewControl(nil)
	for i := 0; i < 3*4096; i++ {
		if err := c2.Tick(); err != nil {
			t.Fatal("nil-done control must not cancel")
		}
	}
	if c2.Canceled() {
		t.Fatal("nil-done control must not be canceled")
	}
}

func TestControlCancelsWithinInterval(t *testing.T) {
	done := make(chan struct{})
	c := NewControl(done)
	for i := 0; i < 4096; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal("must not cancel before done closes")
		}
	}
	close(done)
	if !c.Canceled() {
		t.Fatal("Canceled must observe the closed channel immediately")
	}
	// Tick must report cancellation within one check interval.
	fired := false
	for i := 0; i < 4097; i++ {
		if err := c.Tick(); err == ErrCanceled {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("Tick never reported cancellation within an interval")
	}
	// Once canceled, it keeps reporting at every interval boundary.
	fired = false
	for i := 0; i < 4097; i++ {
		if err := c.Tick(); err == ErrCanceled {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("cancellation is not sticky")
	}
}

// TestControlLatchesImmediately is the regression test for the budget-reset
// bug: after the first ErrCanceled, Tick used to reset its check budget and
// return nil for the next 4095 calls, letting a caller mine on past the
// cancellation. Every call after the first ErrCanceled must now report
// cancellation, with no nil gap.
func TestControlLatchesImmediately(t *testing.T) {
	done := make(chan struct{})
	c := NewControl(done)
	close(done)
	// Drive Tick to its first cancellation report.
	var first error
	for i := 0; i < 4096 && first == nil; i++ {
		first = c.Tick()
	}
	if first != ErrCanceled {
		t.Fatal("Tick never reported cancellation")
	}
	for i := 0; i < 3; i++ {
		if err := c.Tick(); err != ErrCanceled {
			t.Fatalf("Tick call %d after cancellation returned %v, want ErrCanceled", i+1, err)
		}
	}
	if !c.Canceled() {
		t.Fatal("Canceled must stay latched")
	}

	// The latch must also work the other way around: a Canceled observation
	// makes the very next Tick report, even with a full budget remaining.
	done2 := make(chan struct{})
	c2 := NewControl(done2)
	close(done2)
	if !c2.Canceled() {
		t.Fatal("Canceled must observe the closed channel")
	}
	if err := c2.Tick(); err != ErrCanceled {
		t.Fatalf("Tick after a Canceled observation returned %v, want ErrCanceled", err)
	}
}

// TestCountNodes checks the counters-only repository source: CountNodes
// keeps the largest size it saw, that peak reaches the shared Counters
// as nodes_peak (and from there every surface TestCountsSchema pins) at
// the next flush, and it never checks the node budget, so a repository
// outside MaxTreeNodes cannot stop a run.
func TestCountNodes(t *testing.T) {
	var nilCtl *Control
	nilCtl.CountNodes(7) // nil-safe
	NewControl(nil).CountNodes(7)

	var counters obs.Counters
	c := GuardedCounted(nil, guard.New(guard.Budget{MaxTreeNodes: 2}), &counters)
	for _, n := range []int{3, 9, 4} {
		c.CountNodes(n)
	}
	if got := counters.Load().NodesPeak; got != 0 {
		t.Fatalf("nodes_peak = %d before a flush, want 0 (CountNodes is Control-local)", got)
	}
	c.Flush()
	if got := counters.Load().NodesPeak; got != 9 {
		t.Fatalf("nodes_peak = %d, want the peak 9", got)
	}
	c.CountNodes(5)
	c.Flush()
	if got := counters.Load().NodesPeak; got != 9 {
		t.Fatalf("nodes_peak = %d after a smaller size, want 9", got)
	}
	if err := c.Tick(); err != nil {
		t.Fatalf("Tick after CountNodes over MaxTreeNodes: %v, want nil", err)
	}
	if c.Canceled() {
		t.Fatal("CountNodes tripped the node budget")
	}
}
