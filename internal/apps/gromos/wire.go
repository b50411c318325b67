package gromos

import (
	"encoding/binary"
	"fmt"

	"rips/internal/app"
)

// AppendPayload implements app.PayloadCodec: a task is a charge-group
// index, serialized as one big-endian uint32. The group geometry
// itself never crosses the wire — every cluster node constructs the
// identical molecule from the fixed seed, so the index alone
// reproduces the task.
func (a *App) AppendPayload(dst []byte, data any) ([]byte, error) {
	w, ok := data.(*app.Words)
	if !ok {
		return nil, fmt.Errorf("gromos: payload %T is not a charge-group index", data)
	}
	return binary.BigEndian.AppendUint32(dst, uint32(unpack(w))), nil
}

// DecodePayload implements app.PayloadCodec.
func (a *App) DecodePayload(p []byte) (any, error) { return app.DecodeBoxed(a, p) }

// DecodeInto implements app.PayloadCodec.
func (a *App) DecodeInto(p []byte, w *app.Words) error {
	if len(p) != 4 {
		return fmt.Errorf("gromos: payload is %d bytes, want 4", len(p))
	}
	g := int32(binary.BigEndian.Uint32(p))
	if g < 0 || g >= NumGroups {
		return fmt.Errorf("gromos: charge-group index %d out of range [0, %d)", g, NumGroups)
	}
	*w = pack(g)
	return nil
}
