package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// underEachEnv runs body once as plain code under a RealEnv and once as a
// process of a fresh Kernel, which is how OrderedFanout is called in
// production (restore from the application, restore inside a simulation).
// After body returns it checks that the fan-out left nothing running: no
// extra goroutine under the real clock, no live process but the caller
// under the kernel.
func underEachEnv(t *testing.T, body func(t *testing.T, env Env)) {
	t.Run("real", func(t *testing.T) {
		before := runtime.NumGoroutine()
		body(t, NewRealEnv())
		// A worker's goroutine ends a few instructions after the join
		// observes it; give the scheduler that long.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%d goroutines outlive the fan-out", n-before)
		}
	})
	t.Run("kernel", func(t *testing.T) {
		k := NewKernel()
		k.Go("caller", func() {
			body(t, k)
			if len(k.live) != 1 {
				t.Errorf("%d processes live after the fan-out, want the caller alone", len(k.live))
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// jitter makes later indices finish first, so only the ordered fold can
// put results back in index order.
func jitter(env Env, i, n int) { env.Sleep(time.Duration(n-i) * 50 * time.Microsecond) }

func TestOrderedFanoutFoldsInIndexOrder(t *testing.T) {
	const n = 24
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	underEachEnv(t, func(t *testing.T, env Env) {
		for workers := 0; workers <= 8; workers++ {
			var got []int
			err := OrderedFanout(env, n, workers,
				func(i int) (int, error) { jitter(env, i, n); return i * i, nil },
				func(i, v int) error {
					if v != i*i {
						t.Errorf("workers=%d: fold(%d) got the load of another index: %d", workers, i, v)
					}
					got = append(got, i)
					return nil
				})
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: folded %v, err %v", workers, got, err)
			}
		}
		if err := OrderedFanout(env, 0, 4,
			func(int) (int, error) { t.Error("load called for n=0"); return 0, nil },
			func(int, int) error { t.Error("fold called for n=0"); return nil }); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOrderedFanoutFirstErrorInIndexOrderWins(t *testing.T) {
	const n = 16
	underEachEnv(t, func(t *testing.T, env Env) {
		for workers := 1; workers <= 8; workers++ {
			var folded []int
			err := OrderedFanout(env, n, workers,
				func(i int) (int, error) {
					jitter(env, i, n) // index 9 fails before index 5 does
					if i == 5 || i == 9 {
						return 0, fmt.Errorf("load %d", i)
					}
					return i, nil
				},
				func(i, v int) error { folded = append(folded, i); return nil })
			if err == nil || err.Error() != "load 5" {
				t.Fatalf("workers=%d: err = %v, want load 5", workers, err)
			}
			if !reflect.DeepEqual(folded, []int{0, 1, 2, 3, 4}) {
				t.Fatalf("workers=%d: folded %v, want the prefix before the failure only", workers, folded)
			}
		}
	})
}

func TestOrderedFanoutStopCancelsUnclaimed(t *testing.T) {
	const n, stopAt = 400, 4
	stop := errors.New("stop")
	underEachEnv(t, func(t *testing.T, env Env) {
		for _, workers := range []int{1, 2, 8} {
			var loads atomic.Int64
			folded := 0
			err := OrderedFanout(env, n, workers,
				func(i int) (int, error) { loads.Add(1); env.Sleep(200 * time.Microsecond); return i, nil },
				func(i, v int) error {
					if i == stopAt {
						return stop
					}
					folded++
					return nil
				})
			if err != stop || folded != stopAt {
				t.Fatalf("workers=%d: err %v after %d folds, want stop after %d", workers, err, folded, stopAt)
			}
			// Loads run ahead of the fold by what the workers had claimed
			// when it stopped, never by the rest of the range.
			if got := loads.Load(); got >= n/2 {
				t.Errorf("workers=%d: %d of %d indices were loaded after a stop at %d", workers, got, n, stopAt)
			}
		}
	})
}

// Every load has returned before OrderedFanout does, on the error path too:
// a caller may tear down what the loads read from as soon as it has the
// error.
func TestOrderedFanoutJoinsBeforeReturning(t *testing.T) {
	const n = 32
	underEachEnv(t, func(t *testing.T, env Env) {
		for workers := 1; workers <= 8; workers++ {
			var mu sync.Mutex
			returned, late := false, 0
			err := OrderedFanout(env, n, workers,
				func(i int) (int, error) {
					if i == 0 {
						return 0, errors.New("first entry is bad")
					}
					env.Sleep(time.Millisecond) // still inside load when index 0 fails
					mu.Lock()
					if returned {
						late++
					}
					mu.Unlock()
					return i, nil
				},
				func(int, int) error { return nil })
			mu.Lock()
			returned = true
			mu.Unlock()
			if err == nil {
				t.Fatalf("workers=%d: no error", workers)
			}
			env.Sleep(5 * time.Millisecond) // a straggler would finish its load now
			mu.Lock()
			if late > 0 {
				t.Errorf("workers=%d: %d loads were still running after the return", workers, late)
			}
			mu.Unlock()
		}
	})
}
