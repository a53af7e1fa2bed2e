// Package quantize implements uniform affine 8-bit quantization for
// tensors in transit.
//
// Split learning's per-step uplink carries cut-layer activations and its
// downlink the matching gradients; at float32 wire precision these
// dominate GSFL's communication budget. Quantizing transfers to one byte
// per scalar cuts that traffic 4x at a small, measurable accuracy cost —
// the classic communication/precision trade-off this package lets the
// experiments explore (ablation Q in the README's "Which benchmark
// regenerates which paper result" table).
//
// The scheme is standard uniform affine quantization: a tensor maps to
// uint8 codes via code = round((x - min) / scale), dequantizing to
// x' = min + code*scale, with scale = (max-min)/255. The worst-case
// round-trip error is scale/2 per element.
package quantize

import (
	"fmt"
	"math"

	"gsfl/internal/tensor"
)

// WireBytesPerScalar is the transfer cost of one quantized element.
const WireBytesPerScalar = 1

// headerBytes prices the (scale, min, shape) metadata per tensor.
const headerBytes = 16

// Quantized is an 8-bit encoded tensor.
type Quantized struct {
	Min   float64
	Scale float64
	Shape []int
	Codes []uint8
}

// Quantize encodes t with uniform affine quantization. Constant tensors
// (max == min) encode with zero scale and decode exactly.
func Quantize(t *tensor.Tensor) *Quantized {
	q := &Quantized{}
	QuantizeInto(q, t)
	return q
}

// QuantizeInto encodes t into q, reusing q's code and shape buffers —
// the destination-passing form of Quantize that the per-replica transfer
// workspaces use. Every field of q is overwritten, so results are
// identical to Quantize.
func QuantizeInto(q *Quantized, t *tensor.Tensor) {
	q.Shape = t.AppendShape(q.Shape[:0])
	if cap(q.Codes) < t.Size() {
		q.Codes = make([]uint8, t.Size())
	} else {
		q.Codes = q.Codes[:t.Size()]
	}
	q.Min, q.Scale = 0, 0
	if t.Size() == 0 {
		q.Codes = nil
		return
	}
	lo, hi := t.Min(), t.Max()
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		panic(fmt.Sprintf("quantize: non-finite tensor range [%v, %v]", lo, hi))
	}
	q.Min = lo
	q.Scale = (hi - lo) / 255
	if q.Scale == 0 {
		for i := range q.Codes {
			q.Codes[i] = 0 // all elements equal Min
		}
		return
	}
	inv := 1 / q.Scale
	for i, v := range t.Data {
		c := math.Round((v - lo) * inv)
		if c < 0 {
			c = 0
		} else if c > 255 {
			c = 255
		}
		q.Codes[i] = uint8(c)
	}
}

// Dequantize decodes back to a float tensor.
func (q *Quantized) Dequantize() *tensor.Tensor {
	return q.DequantizeInto(&tensor.Tensor{})
}

// DequantizeInto decodes into dst, shaping it to the encoded shape
// (reusing its storage) and returning dst. Every element is overwritten,
// so results are identical to Dequantize.
func (q *Quantized) DequantizeInto(dst *tensor.Tensor) *tensor.Tensor {
	dst.Ensure(q.Shape...)
	if q.Scale == 0 {
		dst.Fill(q.Min)
		return dst
	}
	for i, c := range q.Codes {
		dst.Data[i] = q.Min + float64(c)*q.Scale
	}
	return dst
}

// WireBytes returns the transfer size of the encoded tensor.
func (q *Quantized) WireBytes() int64 {
	return int64(len(q.Codes))*WireBytesPerScalar + headerBytes
}

// MaxError returns the worst-case absolute round-trip error (scale/2).
func (q *Quantized) MaxError() float64 { return q.Scale / 2 }

// RoundTrip is the convenience composition used inside training steps:
// quantize then immediately dequantize, returning the precision-lossy
// tensor the receiving side would see.
func RoundTrip(t *tensor.Tensor) *tensor.Tensor {
	return Quantize(t).Dequantize()
}

// Buffer is a reusable quantize→dequantize workspace. Each
// concurrently-training replica owns its own (one per transfer
// direction); steady-state round trips then allocate nothing.
type Buffer struct {
	q   Quantized
	out tensor.Tensor
}

// RoundTrip is the allocation-free form of the package-level RoundTrip:
// the returned tensor is the buffer's own and is valid until the next
// call on the same Buffer. Results are bit-identical to the allocating
// version.
func (b *Buffer) RoundTrip(t *tensor.Tensor) *tensor.Tensor {
	QuantizeInto(&b.q, t)
	return b.q.DequantizeInto(&b.out)
}
