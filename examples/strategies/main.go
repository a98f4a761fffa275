// Strategies: run the same iterative workload under the three checkpointing
// approaches the paper compares — adaptive (AI-Ckpt), async-no-pattern and
// sync — against a deliberately slow storage backend, and print how long
// the application was blocked and how its first writes were classified.
// This is Figure 2 in miniature, on the real-time runtime.
//
//	go run ./examples/strategies
package main

import (
	"fmt"
	"log"
	"time"

	aickpt "repro"
)

// slowStore throttles page writes to make the asynchronous/synchronous
// trade-off visible in real time.
type slowStore struct{ perPage time.Duration }

func (s slowStore) WritePage(epoch uint64, page int, data []byte, size int) error {
	time.Sleep(s.perPage)
	return nil
}
func (s slowStore) EndEpoch(epoch uint64) error { return nil }

func main() {
	const (
		pageSize = 4096
		pages    = 512
		iters    = 6
		ckEvery  = 2
	)
	for _, strategy := range []aickpt.Strategy{aickpt.Adaptive, aickpt.NoPattern, aickpt.Sync} {
		rt, err := aickpt.New(aickpt.Options{
			Store:     slowStore{200 * time.Microsecond},
			PageSize:  pageSize,
			CowBuffer: 64 << 10, // 16 COW slots
			Strategy:  strategy,
		})
		if err != nil {
			log.Fatal(err)
		}
		region := rt.MallocProtected(pages * pageSize)
		buf := make([]byte, pageSize)

		start := time.Now()
		for it := 1; it <= iters; it++ {
			// Touch every page, descending: the order an address-ordered
			// flush predicts worst.
			for p := pages - 1; p >= 0; p-- {
				buf[0] = byte(it)
				region.Write(p*pageSize, buf)
			}
			if it%ckEvery == 0 {
				rt.Checkpoint()
			}
		}
		rt.WaitIdle()
		elapsed := time.Since(start)

		// The summary's scorecard columns show WHY a strategy wins: the
		// adaptive selector flushes in predicted fault order, so its rank
		// correlation stays high and more faults land on already-flushed
		// pages (hit rate) instead of blocking.
		sum := aickpt.Summarize(rt.Stats())
		if err := rt.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s runtime=%8v app-blocked=%8v WAIT=%4d COW=%4d AVOIDED=%4d hit=%5.2f corr=%5.2f\n",
			strategy, elapsed.Round(time.Millisecond), sum.AppBlocked.Round(time.Millisecond),
			sum.Waits, sum.CowAbsorbed, sum.Avoided, sum.HitRate, sum.RankCorrelation)
	}
	fmt.Println("\nlower app-blocked is better: the asynchronous strategies hide most")
	fmt.Println("of the flush behind the application, while sync blocks for all of it.")
	fmt.Println("The scorecard explains how each selector behaves: the adaptive flush")
	fmt.Println("order tracks the fault order of this descending workload (corr near 1)")
	fmt.Println("where the address-ordered flush shows no correlation at all.")
	fmt.Println("Real-time sleep granularity blurs the adaptive-vs-no-pattern gap here;")
	fmt.Println("run `go run ./cmd/aickpt-bench fig2` for the calibrated comparison.")
}
