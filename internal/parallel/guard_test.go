package parallel

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/mining"
	"repro/internal/result"
)

// TestParallelWorkerPanicDrains injects a panic into the cooperative tick
// path — it fires inside the shard workers — and checks both engines
// surface a *guard.PanicError while draining their pools completely.
func TestParallelWorkerPanicDrains(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := randDB(rng, 18, 160, 0.35)
	engines := []struct {
		name string
		mine func() error
	}{
		{"ista", func() error {
			return engine.Run(db, "ista", engine.Spec{MinSupport: 2, Workers: 4}, &result.Counter{})
		}},
		{"carpenter-table", func() error {
			return engine.Run(db, "carpenter-table", engine.Spec{MinSupport: 2, Workers: 4}, &result.Counter{})
		}},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			defer faultinject.LeakCheck(t)()
			restore := faultinject.PanicAtTick(20)
			defer restore()
			err := e.mine()
			var pe *guard.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *guard.PanicError", err)
			}
			if _, ok := pe.Value.(faultinject.TickFault); !ok {
				t.Fatalf("panic value = %#v, want TickFault", pe.Value)
			}
		})
	}
}

// TestParallelCancellationDrains re-runs the pre-closed-done cancellation
// of TestParallelCancellation under the leak checker: the worker pools of
// both engines must drain to the baseline goroutine count.
func TestParallelCancellationDrains(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	rng := rand.New(rand.NewSource(31))
	db := randDB(rng, 20, 200, 0.3)
	done := make(chan struct{})
	close(done)
	if err := engine.Run(db, "ista", engine.Spec{MinSupport: 2, Workers: 8, Done: done}, &result.Counter{}); !errors.Is(err, mining.ErrCanceled) {
		t.Fatalf("ista: err = %v, want ErrCanceled", err)
	}
	if err := engine.Run(db, "carpenter-table", engine.Spec{MinSupport: 2, Workers: 8, Done: done}, &result.Counter{}); !errors.Is(err, mining.ErrCanceled) {
		t.Fatalf("carpenter: err = %v, want ErrCanceled", err)
	}
}

// TestParallelDeadlineDrains: an already-expired guard deadline must stop
// both engines with ErrDeadline and leave no goroutines behind.
func TestParallelDeadlineDrains(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	rng := rand.New(rand.NewSource(37))
	db := randDB(rng, 20, 200, 0.3)
	g := guard.New(guard.Budget{Deadline: time.Now().Add(-time.Second)})
	if err := engine.Run(db, "ista", engine.Spec{MinSupport: 2, Workers: 8, Guard: g}, &result.Counter{}); !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("ista: err = %v, want ErrDeadline", err)
	}
	if err := engine.Run(db, "carpenter-table", engine.Spec{MinSupport: 2, Workers: 8, Guard: g}, &result.Counter{}); !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("carpenter: err = %v, want ErrDeadline", err)
	}
}
