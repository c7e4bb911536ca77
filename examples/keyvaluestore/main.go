// Keyvaluestore simulates a Memcached-like in-memory cache (the paper's
// §6 target) with swappable lock algorithms: striped hash-bucket locks
// plus one hot LRU/cache lock that SETs funnel through. It reports how
// the lock choice moves throughput, power, energy efficiency and tail
// latency for a read-mostly and a write-heavy mix.
package main

import (
	"fmt"
	"math/rand"

	"lockin"
	"lockin/internal/core"
	"lockin/internal/machine"
	"lockin/internal/sim"
	"lockin/internal/workload"
)

const (
	threads   = 8
	buckets   = 16
	duration  = sim.Cycles(15_000_000)
	warmup    = sim.Cycles(300_000)
	getCost   = sim.Cycles(900)  // hash lookup under a bucket lock
	setCost   = sim.Cycles(1400) // LRU + item update under the cache lock
	parseCost = sim.Cycles(1200) // request parsing / networking
)

func run(k lockin.Kind, getPct int) (thr, watts, tpp float64, p99 uint64) {
	r := workload.NewRunner(machine.DefaultConfig(7), warmup, duration)
	cache := core.New(r.M, core.Kind(k))
	bucket := make([]core.Lock, buckets)
	for i := range bucket {
		bucket[i] = core.New(r.M, core.Kind(k))
	}

	for i := 0; i < threads; i++ {
		rng := rand.New(rand.NewSource(int64(i) + 100))
		r.M.Spawn("worker", func(t *machine.Thread) {
			for r.Running(t) {
				start := t.Proc().Now()
				b := bucket[rng.Intn(buckets)]
				if rng.Intn(100) < getPct {
					b.Lock(t)
					t.Compute(getCost)
					b.Unlock(t)
				} else {
					b.Lock(t)
					t.Compute(700)
					b.Unlock(t)
					cache.Lock(t)
					t.Compute(setCost)
					cache.Unlock(t)
				}
				r.Note(t, start)
				t.Compute(parseCost)
			}
		})
	}
	res := r.Finish()
	return res.Throughput(), res.Power().Total, res.TPP(), res.Latency.Percentile(0.99)
}

func main() {
	fmt.Println("Simulated Memcached-style cache, 8 threads, 16 bucket locks + 1 cache lock")
	for _, mix := range []struct {
		name   string
		getPct int
	}{{"GET-heavy (90% get)", 90}, {"SET-heavy (10% get)", 10}} {
		fmt.Printf("\n%s\n", mix.name)
		fmt.Printf("%-8s  %12s  %9s  %12s  %12s\n", "lock", "thr (Kops/s)", "power (W)", "TPP (Kops/J)", "p99 (Kcyc)")
		for _, k := range []lockin.Kind{lockin.MUTEX, lockin.TICKET, lockin.MUTEXEE} {
			thr, w, tpp, p99 := run(k, mix.getPct)
			fmt.Printf("%-8s  %12.0f  %9.1f  %12.2f  %12.1f\n",
				k, thr/1e3, w, tpp/1e3, float64(p99)/1e3)
		}
	}
}
