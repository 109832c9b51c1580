package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"

	"homeconnect/internal/core/vsg"
	"homeconnect/internal/service"
)

// callInput is one generated echo call.
type callInput struct {
	service string
	op      string
	args    []service.Value
	rid     int64
}

// xmlUnsafe is the alphabet string payloads draw from: markup
// metacharacters, quotes and multi-byte runes next to plain text, so
// the SOAP codec escapes and the binary codec length-prefixes real work.
var xmlUnsafe = []rune("abcdefghijklmnopqrstuvwxyz0123456789 <>&\"'=/;éßø→☃—")

// payload returns a string of n runes from the unsafe alphabet.
func payload(rng *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(xmlUnsafe[rng.Intn(len(xmlUnsafe))])
	}
	return b.String()
}

// makeCalls generates n echo calls spread uniformly over services,
// with request ids ridBase+1, ridBase+2, ... Nothing in the repository
// or the paper says how often a home's calls carry which argument, so
// the mix is an assumption, and the plainest one: the four echo
// operations are equally likely — void Ping, an int, a string, 72–519
// bytes — and a string is equally likely short (8–63 runes), medium
// (200–311) or long (about 2 KB, 1800–2199).
func makeCalls(rng *rand.Rand, n, services int, ridBase int64) []callInput {
	out := make([]callInput, n)
	for i := range out {
		rid := ridBase + int64(i) + 1
		c := callInput{service: echoServiceID(rng.Intn(services)), rid: rid}
		switch rng.Intn(4) {
		case 0:
			c.op = opPing
		case 1:
			c.op = opInt
			c.args = []service.Value{service.IntValue(rid)}
		case 2:
			c.op = opStr
			size := [3]int{8 + rng.Intn(56), 200 + rng.Intn(112), 1800 + rng.Intn(400)}[rng.Intn(3)]
			c.args = []service.Value{service.StringValue(strconv.FormatInt(rid, 10) + "|" + payload(rng, size))}
		default:
			c.op = opBytes
			b := make([]byte, 8+64+rng.Intn(448))
			binary.BigEndian.PutUint64(b, uint64(rid))
			rng.Read(b[8:])
			c.args = []service.Value{service.BytesValue(b)}
		}
		out[i] = c
	}
	return out
}

// checkEcho verifies that a call's result is the argument it sent.
func checkEcho(c callInput, got service.Value) error {
	if len(c.args) == 0 {
		if !got.IsVoid() {
			return fmt.Errorf("%s.%s: want void, got %v", c.service, c.op, got)
		}
		return nil
	}
	if !got.Equal(c.args[0]) {
		return fmt.Errorf("%s.%s rid %d: result differs from the echoed argument", c.service, c.op, c.rid)
	}
	return nil
}

// caller issues echo calls through a gateway, optionally tracing the
// resolve and wire halves of each call.
type caller struct {
	gw     *vsg.VSG
	prefix string // scope the target home's services are addressed by
	tr     *Tracer
	calls  []callInput
	// failures counts results that differ from the echoed argument.
	failures atomic.Int64
	firstBad atomic.Value
}

// call runs calls[i] and checks its result; it is the Generator's op
// function.
func (c *caller) call(ctx context.Context, i int) error {
	in := c.calls[i]
	root := spanFrom(ctx).h
	id := c.prefix + in.service
	var got service.Value
	var err error
	if !c.tr.On() {
		got, err = c.gw.Call(ctx, id, in.op, in.args)
	} else {
		// VSG.Call is Resolve followed by CallRemote for a service not
		// exported locally; splitting it puts a span on each half.
		h := c.tr.Begin("vsg.call", root, in.rid)
		hr := c.tr.Begin("vsg.resolve", h, in.rid)
		remote, rerr := c.gw.Resolve(ctx, id)
		c.tr.End(hr)
		if rerr != nil {
			err = rerr
		} else {
			hc := c.tr.Begin("vsg.callremote", h, in.rid)
			got, err = c.gw.CallRemote(withSpan(ctx, hc, in.rid), remote, in.op, in.args)
			c.tr.End(hc)
		}
		c.tr.End(h)
	}
	if err != nil {
		return err
	}
	if cerr := checkEcho(in, got); cerr != nil {
		c.failures.Add(1)
		c.firstBad.CompareAndSwap(nil, cerr.Error())
		return cerr
	}
	return nil
}

// spanKey carries the enclosing span to the traced RoundTripper.
type spanKey struct{}

type spanRef struct {
	h   int
	rid int64
}

func withSpan(ctx context.Context, h int, rid int64) context.Context {
	if h < 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{h, rid})
}

// spanFrom returns the enclosing span carried by ctx (-1 for none).
func spanFrom(ctx context.Context) spanRef {
	if r, ok := ctx.Value(spanKey{}).(spanRef); ok {
		return r
	}
	return spanRef{h: -1}
}
