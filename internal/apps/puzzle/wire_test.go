package puzzle

import (
	"bytes"
	"math"
	"testing"

	"rips/internal/app"
)

// node is a search-frontier state with its fields named, for tables.
type node struct {
	b     Board
	g, h  int16
	prev  int8
	bound int16
}

// TestPackAndWireRoundTrip: the inline words and the wire bytes are two
// encodings of one search node, and neither loses a bit — or a sign —
// at the edges of the fields' ranges. The bytes are the rips-wire/v1
// payload, pinned: frames must not change with the representation.
func TestPackAndWireRoundTrip(t *testing.T) {
	a := New("t", Scramble(4, 24, 8), 6)
	for _, nd := range []node{
		{b: Goal(4), prev: -1},
		{b: Board{cells: math.MaxUint64, blank: 15, width: 4}, g: math.MaxInt16, h: math.MaxInt16, prev: 15, bound: math.MaxInt16},
		{b: Board{cells: 1 << 63, blank: 0, width: 2}, g: 1, h: -1, prev: -1, bound: -1},
		{b: Board{blank: -1, width: 3}, g: math.MinInt16, h: math.MinInt16, prev: math.MinInt8, bound: math.MinInt16},
		{b: a.start, h: int16(a.start.manhattan()), prev: -1, bound: a.bounds[0]},
	} {
		w := pack(nd.b, nd.g, nd.h, nd.prev, nd.bound)
		var got node
		if got.b, got.g, got.h, got.prev, got.bound = unpack(&w); got != nd {
			t.Errorf("unpack(pack(%+v)) = %+v", nd, got)
		}
		enc, err := a.AppendPayload(nil, &w)
		if err != nil || len(enc) != payloadSize {
			t.Fatalf("AppendPayload(%+v) = %d bytes, %v", nd, len(enc), err)
		}
		dec, err := a.DecodePayload(enc)
		if err != nil || *dec.(*app.Words) != w {
			t.Errorf("DecodePayload(AppendPayload(%+v)) = %v, %v", nd, dec, err)
		}
	}
	w := pack(Board{cells: 0x0fedcba987654321, blank: 15, width: 4}, 258, -2, -1, 0x1234)
	enc, _ := a.AppendPayload([]byte{0xaa}, &w)
	want := []byte{0xaa, 0x0f, 0xed, 0xcb, 0xa9, 0x87, 0x65, 0x43, 0x21, 15, 4, 0x01, 0x02, 0xff, 0xfe, 0xff, 0x12, 0x34}
	if !bytes.Equal(enc, want) {
		t.Errorf("canonical bytes = % x, want % x", enc, want)
	}
	if _, err := a.AppendPayload(nil, node{}); err == nil {
		t.Error("AppendPayload accepted a payload that is not *app.Words")
	}
	enc[10] = 5 // width
	if _, err := a.DecodePayload(enc[1:]); err == nil {
		t.Error("DecodePayload accepted a board of width 5")
	}
}
