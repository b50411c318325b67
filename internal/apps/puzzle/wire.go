package puzzle

import (
	"encoding/binary"
	"fmt"

	"rips/internal/app"
)

// payloadSize is the canonical wire encoding's length: the packed
// board (cells, blank, width) followed by g, h, prev and bound.
const payloadSize = 8 + 1 + 1 + 2 + 2 + 1 + 2

// AppendPayload implements app.PayloadCodec: a search-frontier node
// serializes as its packed board followed by the search bookkeeping,
// big-endian.
func (a *App) AppendPayload(dst []byte, data any) ([]byte, error) {
	w, ok := data.(*app.Words)
	if !ok {
		return nil, fmt.Errorf("puzzle: payload %T is not a search node", data)
	}
	b, g, h, prev, bound := unpack(w)
	dst = binary.BigEndian.AppendUint64(dst, b.cells)
	dst = append(dst, byte(b.blank), byte(b.width))
	dst = binary.BigEndian.AppendUint16(dst, uint16(g))
	dst = binary.BigEndian.AppendUint16(dst, uint16(h))
	dst = append(dst, byte(prev))
	dst = binary.BigEndian.AppendUint16(dst, uint16(bound))
	return dst, nil
}

// DecodePayload implements app.PayloadCodec.
func (a *App) DecodePayload(p []byte) (any, error) { return app.DecodeBoxed(a, p) }

// DecodeInto implements app.PayloadCodec.
func (a *App) DecodeInto(p []byte, w *app.Words) error {
	if len(p) != payloadSize {
		return fmt.Errorf("puzzle: payload is %d bytes, want %d", len(p), payloadSize)
	}
	b := Board{cells: binary.BigEndian.Uint64(p[0:8]), blank: int8(p[8]), width: int8(p[9])}
	if b.width < 2 || b.width > 4 {
		return fmt.Errorf("puzzle: decoded board width %d out of range", b.width)
	}
	*w = pack(b,
		int16(binary.BigEndian.Uint16(p[10:12])), // g
		int16(binary.BigEndian.Uint16(p[12:14])), // h
		int8(p[14]),                              // prev
		int16(binary.BigEndian.Uint16(p[15:17]))) // bound
	return nil
}
