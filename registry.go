package rips

import (
	"container/list"
	"fmt"
	"sort"
	"sync"

	"rips/internal/apps/gromos"
	"rips/internal/apps/nqueens"
	"rips/internal/apps/puzzle"
)

// AppBuilder constructs a registered workload family's App at a size.
// The size knob's meaning is the family's own (board size, paper
// configuration, cutoff radius); builders must treat 0 as the family's
// documented default and reject unusable sizes with a descriptive
// error.
type AppBuilder func(size int) (App, error)

// appRegistry is the process-wide family-name → builder table behind
// RegisterApp/LookupApp/Apps, plus the bounded cache of the instances
// LookupApp has built. Every surface that resolves a workload by name
// — ripsd submissions, cluster peers re-resolving a forwarded job,
// ripsbench and the difftest harness — goes through this one table, so
// a name means the same workload, and the same instance, everywhere.
var appRegistry = struct {
	sync.Mutex
	builders map[string]AppBuilder
	built    map[appKey]*list.Element // of *builtApp
	order    *list.List               // front = most recently used
	building map[appKey]*appBuild
}{
	builders: map[string]AppBuilder{},
	built:    map[appKey]*list.Element{},
	order:    list.New(),
	building: map[appKey]*appBuild{},
}

// appCacheCap bounds the built instances LookupApp keeps, evicting the
// least recently used: a server sees a handful of (family, size) pairs
// at a time, and an evicted one merely rebuilds.
const appCacheCap = 16

type appKey struct {
	name string
	size int
}

type builtApp struct {
	key appKey
	app App
}

// appBuild is one in-flight builder call; lookups of the same key that
// arrive meanwhile wait on done rather than build a second instance.
type appBuild struct {
	done chan struct{}
	app  App
	err  error
}

// RegisterApp registers a workload family under a name, making it
// resolvable by LookupApp (and thereby submittable to ripsd and
// runnable on cluster peers, which re-resolve forwarded jobs by name —
// a family must be registered identically in every process of a
// cluster). Registration is typically done from an init function; the
// name must be non-empty and not yet taken, and the builder non-nil —
// violations panic, like duplicate http.Handle patterns, because they
// are programmer errors no caller can meaningfully handle.
//
// The App a builder returns is shared: LookupApp hands the one
// instance to every concurrent job that names the same family and
// size, and to every cluster node running in the same process. It must
// therefore be immutable once the builder returns — Execute, Roots and
// the payload codec may read construction state but never write it.
func RegisterApp(name string, build AppBuilder) {
	if name == "" || build == nil {
		panic("rips: RegisterApp with an empty name or nil builder")
	}
	appRegistry.Lock()
	defer appRegistry.Unlock()
	if _, dup := appRegistry.builders[name]; dup {
		panic(fmt.Sprintf("rips: RegisterApp(%q): family already registered", name))
	}
	appRegistry.builders[name] = build
}

// LookupApp resolves a registered workload family at a size (0 means
// the family's default). Unknown names are errors listing the known
// families, so a mistyped submission tells the client what exists.
//
// The family's builder runs once per (name, size) per process:
// concurrent lookups of a missing pair wait for one build, and later
// ones get the same instance back from a small LRU — so callers on
// different goroutines share the returned App and must treat it as
// immutable (see RegisterApp). A builder error or panic reaches the
// caller as it is and is never remembered; the next lookup builds
// again.
func LookupApp(name string, size int) (App, error) {
	key := appKey{name, size}
	r := &appRegistry
	for {
		r.Lock()
		if el, ok := r.built[key]; ok {
			r.order.MoveToFront(el)
			r.Unlock()
			return el.Value.(*builtApp).app, nil
		}
		build, ok := r.builders[name]
		if !ok {
			r.Unlock()
			return nil, fmt.Errorf("rips: unknown app family %q (registered: %v)", name, Apps())
		}
		if b, ok := r.building[key]; ok {
			r.Unlock()
			<-b.done
			if b.app != nil || b.err != nil {
				return b.app, b.err
			}
			continue // the builder panicked in its own caller; build afresh
		}
		b := &appBuild{done: make(chan struct{})}
		r.building[key] = b
		r.Unlock()
		return b.run(key, build)
	}
}

// run calls the builder outside the registry lock and publishes the
// outcome: a built App enters the LRU, an error is handed to the
// waiters of this call only, and a panic unwinds through here leaving
// nothing stored.
func (b *appBuild) run(key appKey, build AppBuilder) (App, error) {
	defer func() {
		r := &appRegistry
		r.Lock()
		delete(r.building, key)
		if b.app != nil {
			r.built[key] = r.order.PushFront(&builtApp{key, b.app})
			for r.order.Len() > appCacheCap {
				delete(r.built, r.order.Remove(r.order.Back()).(*builtApp).key)
			}
		}
		r.Unlock()
		close(b.done)
	}()
	b.app, b.err = build(key.size)
	if b.err != nil {
		b.app = nil
	} else if b.app == nil {
		b.err = fmt.Errorf("rips: app family %q built a nil App at size %d", key.name, key.size)
	}
	return b.app, b.err
}

// Apps returns the registered family names, sorted — the stable
// vocabulary a server can advertise.
func Apps() []string {
	appRegistry.Lock()
	defer appRegistry.Unlock()
	names := make([]string, 0, len(appRegistry.builders))
	for name := range appRegistry.builders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// The built-in families: the paper's three applications. Their names
// and size semantics are part of the serving API surface (see JobSpec).
func init() {
	RegisterApp("nq", func(size int) (App, error) {
		if size == 0 {
			size = 13
		}
		if size < 4 {
			return nil, fmt.Errorf("rips: nq size %d (want a board of at least 4)", size)
		}
		return nqueens.New(size, 4), nil
	})
	RegisterApp("ida", func(size int) (App, error) {
		if size == 0 {
			size = 1
		}
		if size < 1 || size > 3 {
			return nil, fmt.Errorf("rips: ida size %d (want a paper configuration 1..3)", size)
		}
		return puzzle.Config(size), nil
	})
	RegisterApp("gromos", func(size int) (App, error) {
		if size == 0 {
			size = 8
		}
		if size < 1 {
			return nil, fmt.Errorf("rips: gromos size %d (want a positive cutoff in angstroms)", size)
		}
		return gromos.New(float64(size)), nil
	})
}
