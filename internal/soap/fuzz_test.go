package soap

import (
	"math"
	"testing"

	"homeconnect/internal/service"
)

// sameValue is Value.Equal with floats compared by bit pattern, so a NaN
// that survives a round trip counts as the same value.
func sameValue(a, b service.Value) bool {
	if a.Kind() == service.KindFloat && b.Kind() == service.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a.Equal(b)
}

// FuzzDecodeBinCall: the binary call decoder reads every byte a fast-path
// caller sends. It must never panic, and any call it accepts must
// re-encode and decode to the same call.
func FuzzDecodeBinCall(f *testing.F) {
	for _, c := range []Call{
		{Namespace: "urn:homeconnect:svc:x10:lamp-1", Operation: "Level"},
		{Namespace: "urn:homeconnect:svc:havi:vcr-1", Operation: "SetChannel", Args: []Arg{
			{Name: "channel", Value: service.IntValue(-42)},
			{Name: "label", Value: service.StringValue("<ch>&\x00")},
			{Name: "gain", Value: service.FloatValue(math.NaN())},
			{Name: "on", Value: service.BoolValue(true)},
			{Name: "blob", Value: service.BytesValue([]byte{0, 1, 0xff})},
			{Name: "none", Value: service.Void()},
		}},
	} {
		b, err := EncodeBinCall(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeBinCall(data)
		if err != nil {
			return
		}
		b, err := EncodeBinCall(c)
		if err != nil {
			t.Fatalf("decoded call %+v does not re-encode: %v", c, err)
		}
		c2, err := DecodeBinCall(b)
		if err != nil {
			t.Fatalf("re-encoded call does not decode: %v", err)
		}
		if c2.Namespace != c.Namespace || c2.Operation != c.Operation || len(c2.Args) != len(c.Args) {
			t.Fatalf("round trip changed the call: %+v -> %+v", c, c2)
		}
		for i := range c.Args {
			if c2.Args[i].Name != c.Args[i].Name || !sameValue(c2.Args[i].Value, c.Args[i].Value) {
				t.Fatalf("round trip changed arg %d: %+v -> %+v", i, c.Args[i], c2.Args[i])
			}
		}
	})
}

// sameCall reports whether two calls carry the same namespace,
// operation and arguments (floats compared by bit pattern).
func sameCall(a, b Call) bool {
	if a.Namespace != b.Namespace || a.Operation != b.Operation || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i].Name != b.Args[i].Name || !sameValue(a.Args[i].Value, b.Args[i].Value) {
			return false
		}
	}
	return true
}

// FuzzDecodeEnvelope: the XML envelope decoders read every byte a
// SOAP/HTTP caller or callee sends. They must never panic, and any call
// DecodeCall accepts must re-encode and decode to the same call, as
// FuzzDecodeBinCall holds the binary codec to.
func FuzzDecodeEnvelope(f *testing.F) {
	call := Call{Namespace: "urn:homeconnect:svc:havi:vcr-1", Operation: "SetChannel", Args: []Arg{
		{Name: "channel", Value: service.IntValue(-42)},
		{Name: "label", Value: service.StringValue("<ch>&\"'")},
		{Name: "gain", Value: service.FloatValue(0.5)},
		{Name: "on", Value: service.BoolValue(true)},
		{Name: "blob", Value: service.BytesValue([]byte{0, 1, 0xff})},
	}}
	b, err := EncodeCall(call)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	b, err = EncodeResponse(call.Namespace, "Level", service.IntValue(7))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add(EncodeFault(&Fault{Code: "Client", String: "no such operation", Actor: "vsg", Detail: "no_such_operation"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = DecodeResponse(data)
		c, err := DecodeCall(data)
		if err != nil {
			return
		}
		b, err := EncodeCall(c)
		if err != nil {
			t.Fatalf("decoded call %+v does not re-encode: %v", c, err)
		}
		c2, err := DecodeCall(b)
		if err != nil {
			t.Fatalf("re-encoded call does not decode: %v\n%s", err, b)
		}
		if !sameCall(c, c2) {
			t.Fatalf("round trip changed the call: %+v -> %+v", c, c2)
		}
	})
}
