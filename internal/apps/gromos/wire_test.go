package gromos

import (
	"bytes"
	"math"
	"testing"

	"rips/internal/app"
)

// TestPackAndWireRoundTrip: the inline word carries any int32, sign
// included; the wire carries a charge-group index as four big-endian
// bytes, pinned, and refuses one out of range.
func TestPackAndWireRoundTrip(t *testing.T) {
	for _, g := range []int32{0, 1, NumGroups - 1, -1, math.MaxInt32, math.MinInt32} {
		w := pack(g)
		if got := unpack(&w); got != g {
			t.Errorf("unpack(pack(%d)) = %d", g, got)
		}
	}
	a := New(8)
	for _, g := range []int32{0, 255, 256, NumGroups - 1} {
		w := pack(g)
		enc, err := a.AppendPayload(nil, &w)
		if err != nil || len(enc) != 4 {
			t.Fatalf("AppendPayload(%d) = %d bytes, %v", g, len(enc), err)
		}
		dec, err := a.DecodePayload(enc)
		if err != nil || *dec.(*app.Words) != w {
			t.Errorf("DecodePayload(AppendPayload(%d)) = %v, %v", g, dec, err)
		}
	}
	w := pack(0x1234)
	if enc, _ := a.AppendPayload([]byte{0xaa}, &w); !bytes.Equal(enc, []byte{0xaa, 0, 0, 0x12, 0x34}) {
		t.Errorf("canonical bytes = % x", enc)
	}
	if _, err := a.AppendPayload(nil, int32(3)); err == nil {
		t.Error("AppendPayload accepted a payload that is not *app.Words")
	}
	for _, bad := range [][]byte{{0, 0, 0x13, 0x7a}, {0xff, 0xff, 0xff, 0xff}, {0, 0, 1}} { // NumGroups, -1, short
		if _, err := a.DecodePayload(bad); err == nil {
			t.Errorf("DecodePayload accepted % x", bad)
		}
	}
}
