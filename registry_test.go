package rips

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rips/internal/apps/nqueens"
)

// TestLookupAppBuiltins pins the built-in family names and size
// validation — the Table I workload contrast every surface resolves by
// name.
func TestLookupAppBuiltins(t *testing.T) {
	for _, c := range []struct {
		family string
		size   int
		name   string
	}{
		{"nq", 0, "13-queens"},
		{"nq", 9, "9-queens"},
		{"ida", 0, "15-puzzle #1"},
		{"ida", 2, "15-puzzle #2"},
		{"gromos", 0, "gromos 8A"},
		{"gromos", 12, "gromos 12A"},
	} {
		a, err := LookupApp(c.family, c.size)
		if err != nil {
			t.Errorf("LookupApp(%q, %d): %v", c.family, c.size, err)
			continue
		}
		if a.Name() != c.name {
			t.Errorf("LookupApp(%q, %d).Name() = %q, want %q", c.family, c.size, a.Name(), c.name)
		}
	}
	for _, c := range []struct {
		family string
		size   int
	}{
		{"nq", 3}, {"ida", 4}, {"ida", -1}, {"gromos", -8}, {"chess", 0},
	} {
		if _, err := LookupApp(c.family, c.size); err == nil {
			t.Errorf("LookupApp(%q, %d) succeeded, want error", c.family, c.size)
		}
	}
}

var familySeq atomic.Int64

// countingFamily registers a family, under a name no other test (or
// -count rerun) has taken, whose builder counts its calls and
// otherwise does what build says.
func countingFamily(t *testing.T, build AppBuilder) (string, *atomic.Int64) {
	name := fmt.Sprintf("%s#%d", t.Name(), familySeq.Add(1))
	calls := new(atomic.Int64)
	RegisterApp(name, func(size int) (App, error) {
		calls.Add(1)
		return build(size)
	})
	return name, calls
}

func buildQueens(int) (App, error) { return nqueens.New(4, 2), nil }

// TestLookupAppBuildsOnce races many lookups of one missing key: the
// builder must run once — held open here until the race is on — and
// every caller must get the identical instance.
func TestLookupAppBuildsOnce(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	family, calls := countingFamily(t, func(int) (App, error) {
		close(entered) // a second build would panic here
		<-release
		return buildQueens(0)
	})
	const n = 16
	apps := make([]App, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := LookupApp(family, 7)
			if err != nil {
				t.Errorf("lookup %d: %v", i, err)
			}
			apps[i] = a
		}(i)
	}
	<-entered
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("builder ran %d times for %d concurrent lookups, want 1", got, n)
	}
	for i, a := range apps {
		if a != apps[0] {
			t.Errorf("lookup %d got a different instance than lookup 0", i)
		}
	}
}

// TestLookupAppCacheBound fills the cache past its cap: it must not
// grow beyond it, the most recent key must still be resident, and the
// least recent one must have been evicted and rebuild.
func TestLookupAppCacheBound(t *testing.T) {
	family, calls := countingFamily(t, buildQueens)
	const extra = 3
	for size := 1; size <= appCacheCap+extra; size++ {
		if _, err := LookupApp(family, size); err != nil {
			t.Fatal(err)
		}
	}
	appRegistry.Lock()
	resident, ordered := len(appRegistry.built), appRegistry.order.Len()
	appRegistry.Unlock()
	if resident != appCacheCap || ordered != appCacheCap {
		t.Errorf("cache holds %d entries (%d in LRU order), want the cap %d", resident, ordered, appCacheCap)
	}
	built := calls.Load()
	if _, err := LookupApp(family, appCacheCap+extra); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != built {
		t.Errorf("the most recent key rebuilt (%d builds, want %d)", got, built)
	}
	if _, err := LookupApp(family, 1); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != built+1 {
		t.Errorf("the evicted key did not rebuild (%d builds, want %d)", got, built+1)
	}
}

// TestLookupAppErrorNotCached: a failing builder fails every lookup
// afresh and leaves nothing behind.
func TestLookupAppErrorNotCached(t *testing.T) {
	errBuild := errors.New("no such size")
	family, calls := countingFamily(t, func(int) (App, error) { return nil, errBuild })
	for i := 1; i <= 3; i++ {
		if _, err := LookupApp(family, 5); !errors.Is(err, errBuild) {
			t.Fatalf("lookup %d: err = %v, want the builder's error", i, err)
		}
		if got := calls.Load(); got != int64(i) {
			t.Fatalf("builder ran %d times after %d failing lookups", got, i)
		}
	}
	appRegistry.Lock()
	_, stored := appRegistry.built[appKey{family, 5}]
	_, inFlight := appRegistry.building[appKey{family, 5}]
	appRegistry.Unlock()
	if stored || inFlight {
		t.Errorf("failed build left state behind (stored %v, in flight %v)", stored, inFlight)
	}
}

// TestLookupAppPanicNotPoisoned: a builder panic unwinds into its own
// caller, and the key stays usable — the next lookup, and a lookup
// that was waiting on the panicking build, build again.
func TestLookupAppPanicNotPoisoned(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	family, calls := countingFamily(t, func(int) (App, error) {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
			panic("builder bug")
		}
		return buildQueens(0)
	})
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		_, _ = LookupApp(family, 2)
	}()
	<-entered
	waiter := make(chan error)
	go func() {
		_, err := LookupApp(family, 2)
		waiter <- err
	}()
	close(release)
	if v := <-panicked; v != "builder bug" {
		t.Errorf("recovered %v from the panicking lookup, want the builder's panic", v)
	}
	if err := <-waiter; err != nil {
		t.Errorf("lookup concurrent with the panicking build: %v", err)
	}
	if _, err := LookupApp(family, 2); err != nil {
		t.Errorf("lookup after the panic: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("builder ran %d times, want 2 (the panic, then one good build)", got)
	}
}
