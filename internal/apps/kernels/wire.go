// Wire codecs (app.PayloadCodec) for the three kernels: each task type
// serializes as fixed-width big-endian fields, so identically-built
// kernel instances on different cluster nodes exchange tasks
// losslessly.
package kernels

import (
	"encoding/binary"
	"fmt"

	"rips/internal/app"
)

// AppendPayload implements app.PayloadCodec for Gauss.
func (g *Gauss) AppendPayload(dst []byte, data any) ([]byte, error) {
	w, ok := data.(*app.Words)
	if !ok {
		return nil, fmt.Errorf("kernels: payload %T is not a gauss task", data)
	}
	t := unpackGauss(w)
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.k))
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.lo))
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.hi))
	return dst, nil
}

// DecodePayload implements app.PayloadCodec for Gauss.
func (g *Gauss) DecodePayload(p []byte) (any, error) { return app.DecodeBoxed(g, p) }

// DecodeInto implements app.PayloadCodec for Gauss.
func (g *Gauss) DecodeInto(p []byte, w *app.Words) error {
	if len(p) != 12 {
		return fmt.Errorf("kernels: gauss payload is %d bytes, want 12", len(p))
	}
	*w = gaussTask{
		k:  int32(binary.BigEndian.Uint32(p[0:4])),
		lo: int32(binary.BigEndian.Uint32(p[4:8])),
		hi: int32(binary.BigEndian.Uint32(p[8:12])),
	}.pack()
	return nil
}

// AppendPayload implements app.PayloadCodec for FFT.
func (f *FFT) AppendPayload(dst []byte, data any) ([]byte, error) {
	w, ok := data.(*app.Words)
	if !ok {
		return nil, fmt.Errorf("kernels: payload %T is not an fft task", data)
	}
	return binary.BigEndian.AppendUint32(dst, uint32(unpackFFT(w).count)), nil
}

// DecodePayload implements app.PayloadCodec for FFT.
func (f *FFT) DecodePayload(p []byte) (any, error) { return app.DecodeBoxed(f, p) }

// DecodeInto implements app.PayloadCodec for FFT.
func (f *FFT) DecodeInto(p []byte, w *app.Words) error {
	if len(p) != 4 {
		return fmt.Errorf("kernels: fft payload is %d bytes, want 4", len(p))
	}
	*w = fftTask{count: int32(binary.BigEndian.Uint32(p))}.pack()
	return nil
}

// AppendPayload implements app.PayloadCodec for Multigrid.
func (m *Multigrid) AppendPayload(dst []byte, data any) ([]byte, error) {
	w, ok := data.(*app.Words)
	if !ok {
		return nil, fmt.Errorf("kernels: payload %T is not a multigrid task", data)
	}
	t := unpackMG(w)
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.side))
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.lo))
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.rows))
	if t.child {
		return append(dst, 1), nil
	}
	return append(dst, 0), nil
}

// DecodePayload implements app.PayloadCodec for Multigrid.
func (m *Multigrid) DecodePayload(p []byte) (any, error) { return app.DecodeBoxed(m, p) }

// DecodeInto implements app.PayloadCodec for Multigrid.
func (m *Multigrid) DecodeInto(p []byte, w *app.Words) error {
	if len(p) != 13 {
		return fmt.Errorf("kernels: multigrid payload is %d bytes, want 13", len(p))
	}
	if p[12] > 1 {
		return fmt.Errorf("kernels: multigrid child flag %d is not a bool", p[12])
	}
	*w = mgTask{
		side:  int32(binary.BigEndian.Uint32(p[0:4])),
		lo:    int32(binary.BigEndian.Uint32(p[4:8])),
		rows:  int32(binary.BigEndian.Uint32(p[8:12])),
		child: p[12] == 1,
	}.pack()
	return nil
}
