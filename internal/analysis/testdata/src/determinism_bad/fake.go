// Package fake is ripslint test data. It is loaded under the
// synthetic import path rips/internal/sim/fake so the determinism
// analyzer treats it as scheduling-core code (maporder in scope).
package fake

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

func Stamp() time.Time {
	return time.Now() // want "wallclock"
}

func Countdown() <-chan time.Time {
	return time.After(time.Second) // want "injects host-timed delays"
}

func Draw() int {
	return rand.Intn(6) // want "global math/rand"
}

// Seeded builds an explicitly seeded generator; rand.New and
// rand.NewSource are the sanctioned constructors.
func Seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(6)
}

// SeededV2 is the same in math/rand/v2, whose sources are seeded by
// their constructors; its package-level functions are as global.
func SeededV2(seed uint64) int {
	r := randv2.New(randv2.NewPCG(seed, 1))
	return r.IntN(6) + randv2.IntN(6) // want "global math/rand"
}

// Pick makes a scheduling-style decision from map order.
func Pick(load map[int]int) int {
	best := -1
	for id := range load { // want "map iteration order"
		if best < 0 || id < best {
			best = id
		}
	}
	return best
}

// Sum is order-insensitive and carries the waiver directive.
func Sum(load map[int]int) int {
	total := 0
	for _, v := range load { //ripslint:allow maporder commutative reduction
		total += v
	}
	return total
}

// Elapsed only references time.Duration, a type name: no clock read.
func Elapsed(d time.Duration) time.Duration {
	return d
}

// HostStart is waived; this is the directive form riding the line.
func HostStart() time.Time {
	return time.Now() //ripslint:allow wallclock harness timing
}

// HostStop is waived by a directive on the line above.
func HostStop() time.Time {
	//ripslint:allow wallclock harness timing
	return time.Now()
}
