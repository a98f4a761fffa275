package sim

import "fmt"

// OrderedFanout is the one "parallel load, ordered fold" primitive of the
// read side. It runs load(i) for every i in [0, n) on min(workers, n)
// processes of env (at least one), which claim indices in ascending order,
// and calls fold(i, v) on the calling process strictly in index order, so
// the folded result never depends on the width: workers == 1 is the serial
// path, with the next load overlapping the current fold. The first error in
// index order — from load(i) or from fold(i) — wins: nothing after it is
// folded, indices nobody claimed yet are cancelled, loads already in flight
// finish and are discarded. Every worker has exited its last load before
// OrderedFanout returns. Under a Kernel the caller must be a kernel process.
func OrderedFanout[T any](env Env, n, workers int, load func(i int) (T, error), fold func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	workers = max(1, min(workers, n))
	type slot struct {
		v    T
		err  error
		done bool
	}
	mu := env.NewMutex()
	cond := env.NewCond(mu)
	slots := make([]slot, n)
	next, active := 0, workers
	worker := func() {
		mu.Lock()
		for next < n {
			i := next
			next++
			mu.Unlock()
			v, err := load(i)
			mu.Lock()
			slots[i] = slot{v, err, true}
			cond.Broadcast()
		}
		active--
		cond.Broadcast()
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		env.Go(fmt.Sprintf("fanout-%d", w), worker)
	}
	var err error
	mu.Lock()
	for i := 0; i < n && err == nil; i++ {
		for !slots[i].done {
			cond.Wait()
		}
		s := slots[i]
		slots[i] = slot{} // the fold owns v now; do not pin it until the join
		mu.Unlock()
		if err = s.err; err == nil {
			err = fold(i, s.v)
		}
		mu.Lock()
	}
	next = n
	for active > 0 {
		cond.Wait()
	}
	mu.Unlock()
	return err
}
