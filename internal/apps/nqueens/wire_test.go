package nqueens

import (
	"bytes"
	"math"
	"testing"

	"rips/internal/app"
)

// TestPackAndWireRoundTrip: the inline words and the wire bytes are two
// encodings of one state, and neither loses a bit at the edges of the
// fields' ranges. The bytes are the rips-wire/v1 payload, pinned:
// frames must not change with the representation.
func TestPackAndWireRoundTrip(t *testing.T) {
	a := New(20, 4)
	for _, s := range []state{
		{},
		{Row: 20, Cols: 1<<20 - 1, LD: 1 << 31, RD: 1},
		{Row: 1, Cols: 1, LD: math.MaxUint32, RD: math.MaxUint32},
		{Row: math.MaxInt8, Cols: math.MaxUint32},
		{Row: -1, RD: 0x80000001}, // never spawned; the codec must still carry it
	} {
		w := s.pack()
		if got := unpack(&w); got != s {
			t.Errorf("unpack(pack(%+v)) = %+v", s, got)
		}
		enc, err := a.AppendPayload(nil, &w)
		if err != nil || len(enc) != payloadSize {
			t.Fatalf("AppendPayload(%+v) = %d bytes, %v", s, len(enc), err)
		}
		dec, err := a.DecodePayload(enc)
		if err != nil || *dec.(*app.Words) != w {
			t.Errorf("DecodePayload(AppendPayload(%+v)) = %v, %v", s, dec, err)
		}
	}
	w := state{Row: 20, Cols: 0x000fffff, LD: 0x80000001, RD: 0x7ffffffe}.pack()
	enc, _ := a.AppendPayload([]byte{0xaa}, &w)
	want := []byte{0xaa, 20, 0x00, 0x0f, 0xff, 0xff, 0x80, 0x00, 0x00, 0x01, 0x7f, 0xff, 0xff, 0xfe}
	if !bytes.Equal(enc, want) {
		t.Errorf("canonical bytes = % x, want % x", enc, want)
	}
	if _, err := a.AppendPayload(nil, state{}); err == nil {
		t.Error("AppendPayload accepted a payload that is not *app.Words")
	}
	if _, err := a.DecodePayload(enc[:5]); err == nil {
		t.Error("DecodePayload accepted a truncated payload")
	}
}
