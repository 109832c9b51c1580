// Binary call codec: the compact encoding of Call/result/Fault that
// rides the transport's binary fast path between framework-owned
// gateways. It is a strict alternative *framing* of exactly the data the
// SOAP envelope carries — same operations, same typed values, same fault
// code/string/detail triple — so the two paths stay semantically
// interchangeable and the three-way equivalence suite (loopback vs
// binary vs SOAP) can hold them to identical results and typed errors.
//
// Field encoding follows the WAL style: a version byte, a record
// discriminator, uvarint lengths, values by kind tag. No XML escaping,
// no base64: strings XML cannot carry ride here untouched.
package soap

import (
	"encoding/binary"
	"fmt"
	"math"

	"homeconnect/internal/service"
)

// BinCallContentType discriminates a binary-encoded call (or response)
// body on the fast path, the only encoding its frames carry; XML
// envelopes go over HTTP.
const BinCallContentType = "application/x-homeconnect-bincall"

const binCodecVersion = 1

// Record discriminators.
const (
	binRecCall     = 'C'
	binRecResponse = 'R'
	binRecFault    = 'F'
)

func appendBCString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBCValue(b []byte, v service.Value) ([]byte, error) {
	k := v.Kind()
	if !k.Valid() {
		return nil, fmt.Errorf("soap: bincall: invalid value kind: %w", service.ErrBadKind)
	}
	b = append(b, byte(k))
	switch k {
	case service.KindVoid:
	case service.KindString:
		b = appendBCString(b, v.Str())
	case service.KindInt:
		b = binary.AppendVarint(b, v.Int())
	case service.KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case service.KindBool:
		if v.Bool() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case service.KindBytes:
		raw := v.Bytes()
		b = binary.AppendUvarint(b, uint64(len(raw)))
		b = append(b, raw...)
	}
	return b, nil
}

// bcReader walks a binary call record, latching the first error.
type bcReader struct {
	b   []byte
	off int
	err error
}

func (r *bcReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("soap: bincall: truncated at %s", what)
	}
}

func (r *bcReader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(what)
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *bcReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *bcReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *bcReader) str(what string) string {
	if r.err != nil {
		return ""
	}
	n := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)-r.off) < n {
		r.fail(what)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *bcReader) value(what string) service.Value {
	k := service.Kind(r.byte(what + " kind"))
	if r.err != nil {
		return service.Value{}
	}
	switch k {
	case service.KindVoid:
		return service.Void()
	case service.KindString:
		return service.StringValue(r.str(what))
	case service.KindInt:
		return service.IntValue(r.varint(what))
	case service.KindFloat:
		if r.off+8 > len(r.b) {
			r.fail(what)
			return service.Value{}
		}
		bits := binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
		return service.FloatValue(math.Float64frombits(bits))
	case service.KindBool:
		return service.BoolValue(r.byte(what) != 0)
	case service.KindBytes:
		n := r.uvarint(what)
		if r.err != nil {
			return service.Value{}
		}
		if uint64(len(r.b)-r.off) < n {
			r.fail(what)
			return service.Value{}
		}
		v := service.BytesValue(r.b[r.off : r.off+int(n)])
		r.off += int(n)
		return v
	default:
		if r.err == nil {
			r.err = fmt.Errorf("soap: bincall: unknown value kind %d: %w", k, service.ErrBadKind)
		}
		return service.Value{}
	}
}

// EncodeBinCall serializes an RPC request in the binary framing.
func EncodeBinCall(c Call) ([]byte, error) {
	if c.Operation == "" {
		return nil, fmt.Errorf("soap: empty operation name")
	}
	b := make([]byte, 0, 64+len(c.Namespace)+len(c.Operation))
	b = append(b, binCodecVersion, binRecCall)
	b = appendBCString(b, c.Namespace)
	b = appendBCString(b, c.Operation)
	b = binary.AppendUvarint(b, uint64(len(c.Args)))
	var err error
	for _, a := range c.Args {
		b = appendBCString(b, a.Name)
		if b, err = appendBCValue(b, a.Value); err != nil {
			return nil, fmt.Errorf("soap: arg %s: %w", a.Name, err)
		}
	}
	return b, nil
}

// DecodeBinCall parses a binary-framed RPC request.
func DecodeBinCall(data []byte) (Call, error) {
	r := &bcReader{b: data}
	if v := r.byte("version"); r.err == nil && v != binCodecVersion {
		return Call{}, fmt.Errorf("soap: bincall version %d not supported", v)
	}
	if rec := r.byte("record"); r.err == nil && rec != binRecCall {
		return Call{}, fmt.Errorf("soap: bincall record %q is not a call", rec)
	}
	var c Call
	c.Namespace = r.str("namespace")
	c.Operation = r.str("operation")
	n := r.uvarint("arg count")
	if r.err != nil {
		return Call{}, r.err
	}
	if c.Operation == "" {
		// EncodeBinCall never writes one, and the XML twin cannot carry one.
		return Call{}, fmt.Errorf("soap: bincall: empty operation name")
	}
	if n > uint64(len(data)) {
		return Call{}, fmt.Errorf("soap: bincall arg count %d exceeds body", n)
	}
	if n > 0 {
		c.Args = make([]Arg, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		name := r.str("arg name")
		v := r.value("arg value")
		if r.err != nil {
			return Call{}, r.err
		}
		c.Args = append(c.Args, Arg{Name: name, Value: v})
	}
	return c, r.err
}

// EncodeBinResponse serializes a successful result.
func EncodeBinResponse(result service.Value) ([]byte, error) {
	b := make([]byte, 0, 32+result.PayloadLen())
	b = append(b, binCodecVersion, binRecResponse)
	b, err := appendBCValue(b, result)
	if err != nil {
		return nil, fmt.Errorf("soap: result: %w", err)
	}
	return b, nil
}

// EncodeBinFault serializes a fault: the same code/string/actor/detail
// the XML fault carries, so RemoteError mapping is shared.
func EncodeBinFault(f *Fault) []byte {
	b := make([]byte, 0, 32+len(f.String)+len(f.Detail))
	b = append(b, binCodecVersion, binRecFault)
	b = appendBCString(b, f.Code)
	b = appendBCString(b, f.String)
	b = appendBCString(b, f.Actor)
	b = appendBCString(b, f.Detail)
	return b
}

// DecodeBinResponse parses a binary response body into the result value
// or the decoded fault — the exact contract of DecodeResponse.
func DecodeBinResponse(data []byte) (service.Value, *Fault, error) {
	r := &bcReader{b: data}
	if v := r.byte("version"); r.err == nil && v != binCodecVersion {
		return service.Value{}, nil, fmt.Errorf("soap: bincall version %d not supported", v)
	}
	switch rec := r.byte("record"); {
	case r.err != nil:
		return service.Value{}, nil, r.err
	case rec == binRecFault:
		f := &Fault{}
		f.Code = r.str("fault code")
		f.String = r.str("fault string")
		f.Actor = r.str("fault actor")
		f.Detail = r.str("fault detail")
		if r.err != nil {
			return service.Value{}, nil, r.err
		}
		return service.Value{}, f, nil
	case rec == binRecResponse:
		v := r.value("result")
		if r.err != nil {
			return service.Value{}, nil, r.err
		}
		return v, nil, nil
	default:
		return service.Value{}, nil, fmt.Errorf("soap: bincall record %q is not a response", rec)
	}
}
