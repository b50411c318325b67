package reuse

import (
	"runtime"
	"sync"
	"testing"
)

func TestRecycleMostRecentFirst(t *testing.T) {
	var l List[[]int]
	if l.Get() != nil {
		t.Fatal("an empty list handed out a value")
	}
	a, b, c := &[]int{1}, &[]int{2}, &[]int{3}
	l.Put(a)
	l.Put(b)
	l.Put(c)
	for i, want := range []*[]int{c, b, a, nil} {
		if got := l.Get(); got != want {
			t.Errorf("Get %d returned %v, want %v", i, got, want)
		}
	}
}

// put leaves a value on the list that nothing else refers to; a function
// of its own so that the caller's frame holds no pointer to it.
//
//go:noinline
func put(l *List[[]int]) { l.Put(&[]int{1, 2, 3}) }

func TestRecycleHoldsWeakly(t *testing.T) {
	var l List[[]int]
	put(&l)
	kept := &[]int{4}
	l.Put(kept)
	put(&l)
	runtime.GC()
	if got := l.Get(); got != kept {
		t.Errorf("Get returned %v, want the one value still referred to", got)
	}
	if got := l.Get(); got != nil {
		t.Errorf("Get returned %v after a collection, want nothing", *got)
	}
}

// TestRecycleConcurrent has 8 goroutines take, write and put back values of
// one list. A value handed to two of them at once is a data race on its
// contents under -race, and shows as a wrong sum without.
func TestRecycleConcurrent(t *testing.T) {
	var l List[[2]int]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := l.Get()
				if v == nil {
					v = new([2]int)
				}
				v[0]++
				v[1]--
				if v[0]+v[1] != 0 {
					t.Errorf("a value was in two hands: %v", *v)
					return
				}
				l.Put(v)
			}
		}()
	}
	wg.Wait()
}
