package kernels

import (
	"bytes"
	"math"
	"testing"

	"rips/internal/app"
)

// TestPackAndWireRoundTrip: for each kernel the inline words and the
// wire bytes are two encodings of one task, and neither loses a bit —
// or a sign — at the edges of the int32 fields. The bytes are the
// rips-wire/v1 payloads, pinned: frames must not change with the
// representation.
func TestPackAndWireRoundTrip(t *testing.T) {
	edges := []int32{0, 1, -1, math.MaxInt32, math.MinInt32}
	roundTrip := func(c app.PayloadCodec, w app.Words, size int) {
		t.Helper()
		enc, err := c.AppendPayload(nil, &w)
		if err != nil || len(enc) != size {
			t.Fatalf("%s: AppendPayload(%v) = %d bytes, %v", c.Name(), w, len(enc), err)
		}
		dec, err := c.DecodePayload(enc)
		if err != nil || *dec.(*app.Words) != w {
			t.Errorf("%s: DecodePayload(AppendPayload(%v)) = %v, %v", c.Name(), w, dec, err)
		}
		if _, err := c.AppendPayload(nil, w); err == nil {
			t.Errorf("%s: AppendPayload accepted a payload that is not *app.Words", c.Name())
		}
		if _, err := c.DecodePayload(enc[:size-1]); err == nil {
			t.Errorf("%s: DecodePayload accepted a truncated payload", c.Name())
		}
	}
	g, f, m := NewGauss(16, 2), NewFFT(6, 4), NewMultigrid(16, 3, 2)
	for i, x := range edges {
		y, z := edges[(i+1)%len(edges)], edges[(i+2)%len(edges)]

		gt := gaussTask{k: x, lo: y, hi: z}
		w := gt.pack()
		if got := unpackGauss(&w); got != gt {
			t.Errorf("unpackGauss(pack(%+v)) = %+v", gt, got)
		}
		roundTrip(g, w, 12)

		ft := fftTask{count: x}
		w = ft.pack()
		if got := unpackFFT(&w); got != ft {
			t.Errorf("unpackFFT(pack(%+v)) = %+v", ft, got)
		}
		roundTrip(f, w, 4)

		mt := mgTask{side: x, lo: y, rows: z, child: i%2 == 1}
		w = mt.pack()
		if got := unpackMG(&w); got != mt {
			t.Errorf("unpackMG(pack(%+v)) = %+v", mt, got)
		}
		roundTrip(m, w, 13)
	}

	w := gaussTask{k: 1, lo: -2, hi: 0x01020304}.pack()
	if enc, _ := g.AppendPayload([]byte{0xaa}, &w); !bytes.Equal(enc, []byte{0xaa, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xfe, 1, 2, 3, 4}) {
		t.Errorf("gauss canonical bytes = % x", enc)
	}
	w = fftTask{count: 0x0a0b}.pack()
	if enc, _ := f.AppendPayload([]byte{0xaa}, &w); !bytes.Equal(enc, []byte{0xaa, 0, 0, 0x0a, 0x0b}) {
		t.Errorf("fft canonical bytes = % x", enc)
	}
	w = mgTask{side: 16, lo: -1, rows: 2, child: true}.pack()
	enc, _ := m.AppendPayload([]byte{0xaa}, &w)
	if !bytes.Equal(enc, []byte{0xaa, 0, 0, 0, 16, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 2, 1}) {
		t.Errorf("multigrid canonical bytes = % x", enc)
	}
	enc[13] = 2
	if _, err := m.DecodePayload(enc[1:]); err == nil {
		t.Error("multigrid DecodePayload accepted a child flag of 2")
	}
}
