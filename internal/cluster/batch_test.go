package cluster

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"rips"
	"rips/internal/app"
	"rips/internal/par"
)

// The batch decoder this package had before a member ran on the phase
// engine, kept as the oracle of FuzzBatchInstall: a batch decoded into a
// message value (decodeBatch), then every payload boxed through
// DecodePayload (oracleTasks, the old decodeTasks). The only change is
// that the task slice is no longer preallocated from the count field.

// wireTask is one task in flight between members.
type wireTask struct {
	ID      uint64
	Origin  int
	Size    int
	Payload []byte
}

type batchMsg struct {
	Job   uint64
	To    int // destination member index
	Tasks []wireTask
}

func (m batchMsg) encode() []byte {
	var w wbuf
	w.u64(m.Job)
	w.u32(uint32(m.To))
	w.u32(uint32(len(m.Tasks)))
	for _, t := range m.Tasks {
		w.u64(t.ID)
		w.u32(uint32(t.Origin))
		w.u32(uint32(t.Size))
		w.bytes(t.Payload)
	}
	return w.b
}

func decodeBatch(p []byte) (batchMsg, error) {
	r := rbuf{b: p}
	m := batchMsg{Job: r.u64("job"), To: int(r.u32("to"))}
	n := r.u32("count")
	if n > maxPayload/8 {
		return batchMsg{}, fmt.Errorf("cluster: malformed batch: absurd task count %d", n)
	}
	for i := uint32(0); i < n && r.err == nil; i++ {
		m.Tasks = append(m.Tasks, wireTask{
			ID:      r.u64("task id"),
			Origin:  int(r.u32("task origin")),
			Size:    int(r.u32("task size")),
			Payload: r.bytes("task payload"),
		})
	}
	return m, r.fin()
}

// landed is a task as a member holds it after a batch is installed.
type landed struct {
	id     uint64
	origin int
	w      app.Words
}

func oracleTasks(codec app.PayloadCodec, p []byte) ([]landed, error) {
	bm, err := decodeBatch(p)
	if err != nil {
		return nil, err
	}
	var out []landed
	for _, wt := range bm.Tasks {
		data, err := codec.DecodePayload(wt.Payload)
		if err != nil {
			return nil, err
		}
		out = append(out, landed{wt.ID, wt.Origin, *data.(*app.Words)})
	}
	return out, nil
}

// nqCodec is the 8-Queens app as a wire codec: 13-byte payloads.
func nqCodec(tb testing.TB) app.PayloadCodec {
	a, err := rips.LookupApp("nq", 8)
	if err != nil {
		tb.Fatal(err)
	}
	return a.(app.PayloadCodec)
}

// goldenBatch is the batch of wire_test.go's round-trip test with
// payloads a codec accepts: two 8-Queens placements on their way to
// member 1, as the old encoder and the new one must both write them.
func goldenBatch() batchMsg {
	return batchMsg{Job: 9, To: 1, Tasks: []wireTask{
		{ID: 1<<40 | 5, Origin: 1, Size: 13, Payload: []byte{2, 0, 0, 0, 0x11, 0, 0, 0, 0x24, 0, 0, 0, 0x42}},
		{ID: 2, Origin: 0, Size: 13, Payload: []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
	}}
}

// TestBatchBytesUnchanged: a batch appended task by task from decoded
// words is byte for byte what batchMsg.encode wrote, with a task's size
// field carrying its payload length; walkBatch reads the count back
// under decodeBatch's checks.
func TestBatchBytesUnchanged(t *testing.T) {
	codec := nqCodec(t)
	bm := goldenBatch()
	want := bm.encode()
	got := appendBatchHeader(nil, bm.Job, bm.To)
	for _, wt := range bm.Tasks {
		var w app.Words
		if err := codec.DecodeInto(wt.Payload, &w); err != nil {
			t.Fatal(err)
		}
		var err error
		if got, err = appendBatchTask(got, codec, wt.ID, wt.Origin, &w); err != nil {
			t.Fatal(err)
		}
	}
	setBatchCount(got, len(bm.Tasks))
	if !bytes.Equal(got, want) {
		t.Fatalf("batch bytes drifted:\n got %x\nwant %x", got, want)
	}
	if n, err := walkBatch(want, nil); err != nil || n != 2 {
		t.Errorf("walkBatch = %d, %v", n, err)
	}
	for name, bad := range map[string][]byte{
		"short":    want[:len(want)-1],
		"trailing": append(bytes.Clone(want), 0),
		"absurd":   {0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff},
		"empty":    nil,
	} {
		if _, err := walkBatch(bad, nil); err == nil {
			t.Errorf("walkBatch accepted a %s batch", name)
		}
		if _, err := decodeBatch(bad); err == nil {
			t.Errorf("decodeBatch accepted a %s batch", name)
		}
	}
	if _, err := appendBatchTask(nil, codec, 1, 0, 42); err == nil {
		t.Error("appendBatchTask accepted a payload the codec does not know")
	}
}

// install runs installBatch on the stopped world of a fresh one-worker
// member that holds nothing else, and reads back what landed by taking
// everything: the tasks in deque order, the error, and the bytes the
// install allocated.
func install(tb testing.TB, a app.App, p []byte) (got []landed, err error, allocated uint64) {
	codec := a.(app.PayloadCodec)
	run, rerr := par.NewMemberRun(a, 1, par.Member{Index: 1, Width: 2, Exchange: func(x *par.Stopped) bool {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = installBatch(x, codec, p)
		runtime.ReadMemStats(&after)
		allocated = after.TotalAlloc - before.TotalAlloc
		if err != nil {
			if x.Load() != 0 {
				tb.Errorf("a refused batch left %d tasks in the deque", x.Load())
			}
			return false
		}
		if _, terr := x.Take(x.Load(), func(id uint64, origin int, payload any) error {
			got = append(got, landed{id, origin, *payload.(*app.Words)})
			return nil
		}); terr != nil {
			tb.Error(terr)
		}
		return false
	}})
	if rerr != nil {
		tb.Fatal(rerr)
	}
	run.Run()
	return got, err, allocated
}

// FuzzBatchInstall fuzzes the one decoder that takes bytes off the
// network into the engine's task nodes. Whatever the input, installBatch
// does not panic; it accepts exactly the inputs the old pair accepted
// and lands the same (id, origin, words) sequence; a refused batch lands
// nothing; and it allocates at most 16 bytes per input byte plus 64 KiB
// (nodes by the slab, the scratch and the deque ring by doubling) —
// where decodeBatch reserved a task slice as long as the count field
// claimed, 100 MB for sixteen bytes of input.
func FuzzBatchInstall(f *testing.F) {
	a, err := rips.LookupApp("nq", 8)
	if err != nil {
		f.Fatal(err)
	}
	codec := a.(app.PayloadCodec)
	f.Add(goldenBatch().encode()) // testdata/fuzz/FuzzBatchInstall holds it again, with its malformed variants
	f.Fuzz(func(t *testing.T, p []byte) {
		want, werr := oracleTasks(codec, p)
		got, gerr, allocated := install(t, a, p)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("installBatch: %v; decodeBatch+DecodePayload: %v", gerr, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("installed %d tasks, the oracle decoded %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("task %d landed as %+v, the oracle decoded %+v", i, got[i], want[i])
			}
		}
		if limit := uint64(16*len(p) + 64<<10); allocated > limit {
			t.Fatalf("installing %d bytes allocated %d, more than %d", len(p), allocated, limit)
		}
	})
}

// FuzzDecodeInto holds the DecodeInto of every registered app's codec
// against its DecodePayload: whatever the bytes, neither panics, they
// accept the same inputs and yield the same words, and a refusal leaves
// the destination untouched — a node half-written by a refused payload
// would be pushed with the next batch. The built-in codecs derive
// DecodePayload from DecodeInto (app.DecodeBoxed), so for them the
// comparison holds by construction and what the fuzzer buys is the
// absence of panics and the untouched destination; a codec that keeps
// two decoders gets the differential.
func FuzzDecodeInto(f *testing.F) {
	var codecs []app.PayloadCodec
	for _, name := range rips.Apps() {
		a, err := rips.LookupApp(name, 0)
		if err != nil {
			f.Fatal(err)
		}
		codecs = append(codecs, a.(app.PayloadCodec))
	}
	for _, n := range []int{0, 4, 12, 13, 17} { // the codecs' payload sizes
		f.Add(bytes.Repeat([]byte{1}, n))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		for _, c := range codecs {
			boxed, perr := c.DecodePayload(p)
			untouched := app.Words{A: 0xa, B: 0xb, C: 0xc}
			w := untouched
			ierr := c.DecodeInto(p, &w)
			switch {
			case (perr == nil) != (ierr == nil):
				t.Fatalf("%s: DecodeInto: %v; DecodePayload: %v", c.Name(), ierr, perr)
			case ierr != nil && w != untouched:
				t.Fatalf("%s: DecodeInto refused % x and wrote %+v", c.Name(), p, w)
			case ierr == nil && *boxed.(*app.Words) != w:
				t.Fatalf("%s: DecodeInto(% x) = %+v, DecodePayload = %+v", c.Name(), p, w, boxed)
			}
		}
	})
}

// BenchmarkBatch measures a task's trip across the wire without the
// wire: 512 IDA* states appended to a batch from their nodes and
// installed into nodes again, held to the count taken; ns/op is ns per
// task.
func BenchmarkBatch(b *testing.B) {
	a, err := rips.LookupApp("ida", 1)
	if err != nil {
		b.Fatal(err)
	}
	codec := a.(app.PayloadCodec)
	const k = 512
	var batch []byte
	give := func(id uint64, origin int, payload any) (err error) {
		batch, err = appendBatchTask(batch, codec, id, origin, payload)
		return err
	}
	run, err := par.NewMemberRun(a, 1, par.Member{Width: 1, Exchange: func(x *par.Stopped) bool {
		root := appendBatchHeader(nil, 1, 0)
		if root, err = appendBatchTask(root, codec, 1, 0, a.Roots(0)[0].Payload()); err != nil {
			b.Fatal(err)
		}
		setBatchCount(root, 1)
		for x.Load() < k { // the staged root, k times over
			if _, err := installBatch(x, codec, root); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += k {
			batch = appendBatchHeader(batch[:0], 1, 0)
			n, err := x.Take(k, give)
			if err != nil {
				b.Fatal(err)
			}
			setBatchCount(batch, n)
			if c, err := installBatch(x, codec, batch); err != nil || c != n {
				b.Fatalf("installed %d, %v; took %d", c, err, n)
			}
		}
		return false
	}})
	if err != nil {
		b.Fatal(err)
	}
	run.Run()
}
