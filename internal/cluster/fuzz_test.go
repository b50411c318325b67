package cluster

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// What the network can say to a node before anything vouches for it: a
// frame, and the three messages that open or steer a member session. Each
// decoder below never panics, accepts only the canonical encoding of
// what it returns (decode ∘ encode = id, so nothing accepted has trailing
// bytes or a second spelling), and sizes nothing by a count the input
// merely claims. testdata/fuzz holds the goldens of wire_test.go and
// their malformed variants as seeds.

// goldenFrame is TestFrameGolden's frame.
func goldenFrame(tb testing.TB) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, fEcho, []byte("hi")); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadFrame: whatever the stream, readFrame returns a frame or an
// error having allocated at most readGrowth+2 times the input plus two
// first steps — the length field buys nothing; and a frame it accepts is
// byte for byte what writeFrame writes for it.
func FuzzReadFrame(f *testing.F) {
	f.Add(goldenFrame(f))
	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ft, payload, err := readFrame(bytes.NewReader(p))
		runtime.ReadMemStats(&after)
		if spent, limit := after.TotalAlloc-before.TotalAlloc, uint64((readGrowth+2)*len(p)+2*readStep); spent > limit {
			t.Fatalf("reading %d bytes allocated %d, more than %d", len(p), spent, limit)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, ft, payload); err != nil {
			t.Fatalf("an accepted frame cannot be written: %v", err)
		}
		if !bytes.HasPrefix(p, buf.Bytes()) {
			t.Fatalf("accepted % x, which writeFrame spells % x", p[:min(len(p), buf.Len())], buf.Bytes())
		}
		if rt, rp, err := readFrame(&buf); err != nil || rt != ft || !bytes.Equal(rp, payload) {
			t.Fatalf("read ∘ write: %v/%d bytes became %v/%d bytes, %v", ft, len(payload), rt, len(rp), err)
		}
	})
}

// FuzzDecodePlan: the plan of member self of k. An accepted plan names
// only other members of the job and moves at least one task an op.
func FuzzDecodePlan(f *testing.F) {
	f.Add(goldenPlan().encode(), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, p []byte, k, self uint8) {
		m, err := decodePlan(p, int(k), int(self))
		if err != nil {
			return
		}
		for _, op := range m.Ops {
			if op.Peer < 0 || op.Peer >= int(k) || op.Peer == int(self) || op.Count <= 0 {
				t.Fatalf("member %d of %d accepted op %+v", self, k, op)
			}
		}
		if enc := m.encode(); !bytes.Equal(enc, p) {
			t.Fatalf("accepted % x, canonical is % x", p, enc)
		}
	})
}

func FuzzDecodeLink(f *testing.F) {
	f.Add(linkMsg{Key: "mem://a/7", From: 2}.encode())
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := decodeLink(p)
		if err != nil {
			return
		}
		if enc := m.encode(); !bytes.Equal(enc, p) {
			t.Fatalf("accepted % x, canonical is % x", p, enc)
		}
	})
}

// FuzzDecodeAttach: an accepted attach places the member inside the job
// and carries one address per member.
func FuzzDecodeAttach(f *testing.F) {
	f.Add(goldenAttach().encode())
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := decodeAttach(p)
		if err != nil {
			return
		}
		if m.K <= 0 || m.Member < 0 || m.Member >= m.K || len(m.Members) != m.K {
			t.Fatalf("accepted member %d of %d with %d addresses", m.Member, m.K, len(m.Members))
		}
		if enc := m.encode(); !bytes.Equal(enc, p) {
			t.Fatalf("accepted % x, canonical is % x", p, enc)
		}
		if again, err := decodeAttach(m.encode()); err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("decode ∘ encode: %+v became %+v, %v", m, again, err)
		}
	})
}
