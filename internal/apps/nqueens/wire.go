package nqueens

import (
	"encoding/binary"
	"fmt"

	"rips/internal/app"
)

// payloadSize is the canonical wire encoding's length: the row byte
// followed by the three occupancy masks.
const payloadSize = 1 + 4 + 4 + 4

// AppendPayload implements app.PayloadCodec: a partial placement
// serializes as its row followed by Cols, LD and RD, big-endian.
func (a *App) AppendPayload(dst []byte, data any) ([]byte, error) {
	w, ok := data.(*app.Words)
	if !ok {
		return nil, fmt.Errorf("nqueens: payload %T is not a board state", data)
	}
	s := unpack(w)
	dst = append(dst, byte(s.Row))
	dst = binary.BigEndian.AppendUint32(dst, s.Cols)
	dst = binary.BigEndian.AppendUint32(dst, s.LD)
	dst = binary.BigEndian.AppendUint32(dst, s.RD)
	return dst, nil
}

// DecodePayload implements app.PayloadCodec.
func (a *App) DecodePayload(p []byte) (any, error) { return app.DecodeBoxed(a, p) }

// DecodeInto implements app.PayloadCodec.
func (a *App) DecodeInto(p []byte, w *app.Words) error {
	if len(p) != payloadSize {
		return fmt.Errorf("nqueens: payload is %d bytes, want %d", len(p), payloadSize)
	}
	*w = state{
		Row:  int8(p[0]),
		Cols: binary.BigEndian.Uint32(p[1:5]),
		LD:   binary.BigEndian.Uint32(p[5:9]),
		RD:   binary.BigEndian.Uint32(p[9:13]),
	}.pack()
	return nil
}
