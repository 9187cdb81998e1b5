package fim

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/mining"
)

// progressLog collects OnProgress events thread-safely.
type progressLog struct {
	mu     sync.Mutex
	events []ProgressEvent
}

func (l *progressLog) add(p ProgressEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, p)
}

func (l *progressLog) snapshot() []ProgressEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]ProgressEvent(nil), l.events...)
}

// checkMonotone fails the test unless the elapsed time and every field of
// Counts are non-decreasing across the events and exactly the last is
// Final.
func checkMonotone(t *testing.T, events []ProgressEvent) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("no progress events delivered")
	}
	for i, p := range events {
		if got, want := p.Final, i == len(events)-1; got != want {
			t.Fatalf("event %d/%d: Final=%v", i, len(events), got)
		}
		if i == 0 {
			continue
		}
		prev := events[i-1]
		if p.Elapsed < prev.Elapsed {
			t.Fatalf("event %d: elapsed %v after %v", i, p.Elapsed, prev.Elapsed)
		}
		cur, old := reflect.ValueOf(p.Counts), reflect.ValueOf(prev.Counts)
		for f := 0; f < cur.NumField(); f++ {
			if cur.Field(f).Int() < old.Field(f).Int() {
				t.Fatalf("event %d: %s not monotone: %+v after %+v",
					i, cur.Type().Field(f).Name, p.Counts, prev.Counts)
			}
		}
	}
}

// TestProgressConformance is the observability conformance check: with
// progress enabled, snapshots are monotone, the final snapshot agrees
// exactly with MiningStats on every counter, and the parallel run reports
// the identical pattern set to the sequential one. Eclat runs on the
// tid-set kernel, so its kernel counters must reach the events too, and
// eclat's and fpclose's closed-set repositories must reach nodes_peak.
func TestProgressConformance(t *testing.T) {
	restore := mining.SetCheckInterval(1)
	defer restore()

	db := GenQuest(QuestConfig{
		Transactions: 500, Items: 40, AvgLen: 8, Patterns: 12, AvgPatternLen: 4, Seed: 31,
	})
	const minsup = 10

	seq, err := MineClosed(db, minsup)
	if err != nil {
		t.Fatal(err)
	}

	for _, algo := range []Algorithm{IsTa, EclatClosed, FPClose} {
		for _, workers := range []int{0, 4} {
			var log progressLog
			var st MiningStats
			var out ResultSet
			err := Mine(db, Options{
				Algorithm:        algo,
				MinSupport:       minsup,
				Parallelism:      workers,
				Stats:            &st,
				OnProgress:       log.add,
				ProgressInterval: time.Nanosecond,
			}, out.Collect())
			if err != nil {
				t.Fatalf("%s workers=%d: %v", algo, workers, err)
			}
			out.Sort()
			if !out.Equal(seq) {
				t.Fatalf("%s workers=%d: pattern set differs from sequential:\n%s", algo, workers, out.Diff(seq, 10))
			}

			events := log.snapshot()
			checkMonotone(t, events)
			if final := events[len(events)-1]; final.Counts != st.Counts {
				t.Fatalf("%s workers=%d: final snapshot %+v disagrees with stats %+v", algo, workers, final.Counts, st.Counts)
			}
			if algo == EclatClosed && (st.Isects == 0 || st.EarlyStops == 0) {
				t.Fatalf("eclat workers=%d: kernel counters not collected: %+v", workers, st.Counts)
			}
			// The enumeration miners' repositories count as nodes_peak:
			// eclat's closed index holds one entry per closed set, and
			// fpclose's CFI-tree at least one node per stored set.
			if algo == EclatClosed && st.NodesPeak != st.Patterns ||
				algo == FPClose && (st.NodesPeak < st.Patterns || st.Patterns == 0) {
				t.Fatalf("%s workers=%d: nodes_peak %d for %d closed sets", algo, workers, st.NodesPeak, st.Patterns)
			}
		}
	}
}

// TestProgressStopsAfterCancellation verifies that no progress event is
// delivered after a canceled Mine returns, and that the terminal event
// is still the Final snapshot.
func TestProgressStopsAfterCancellation(t *testing.T) {
	restore := mining.SetCheckInterval(1)
	defer restore()

	db := GenQuest(QuestConfig{
		Transactions: 2000, Items: 60, AvgLen: 10, Patterns: 20, AvgPatternLen: 4, Seed: 33,
	})

	var log progressLog
	done := make(chan struct{})
	var once sync.Once
	err := Mine(db, Options{
		MinSupport:  20,
		Parallelism: 4,
		Done:        done,
		OnProgress: func(p ProgressEvent) {
			log.add(p)
			once.Do(func() { close(done) }) // cancel at the first snapshot
		},
		ProgressInterval: time.Nanosecond,
	}, ReporterFunc(func(ItemSet, int) {}))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}

	after := len(log.snapshot())
	time.Sleep(50 * time.Millisecond)
	events := log.snapshot()
	if len(events) != after {
		t.Fatalf("%d progress events arrived after Mine returned", len(events)-after)
	}
	checkMonotone(t, events)
}

// TestNoSinkBuildsNoCounters pins the overhead contract at the API
// level: without Stats and without any observability surface, Mine runs
// the counter-free control path (no panic, same result), and with only
// Stats it still delivers no progress callbacks.
func TestNoSinkBuildsNoCounters(t *testing.T) {
	db := GenQuest(QuestConfig{
		Transactions: 200, Items: 30, AvgLen: 6, Patterns: 8, AvgPatternLen: 3, Seed: 35,
	})
	want, err := MineClosed(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	var st MiningStats
	var out ResultSet
	if err := Mine(db, Options{MinSupport: 5, Stats: &st}, out.Collect()); err != nil {
		t.Fatal(err)
	}
	out.Sort()
	if !out.Equal(want) {
		t.Fatal("stats-only run changed the pattern set")
	}
	if st.Patterns != int64(want.Len()) {
		t.Fatalf("stats patterns = %d, want %d", st.Patterns, want.Len())
	}
}
