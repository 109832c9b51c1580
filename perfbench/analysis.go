package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/vsg"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/soap"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
)

// p50us is the median of xs in microseconds (0 for no samples).
func p50us(xs []time.Duration) float64 {
	return Median(durMs(xs)) * 1000
}

// p99us is the 99th percentile of xs in microseconds (0 when there are
// too few samples for one).
func p99us(xs []time.Duration) float64 {
	v, err := Quantile(durMs(xs), 0.99)
	if err != nil {
		return 0
	}
	return v * 1000
}

// selfLayers maps span names to the self.* metric reporting them.
var selfLayers = map[string]string{
	"op":             "self.op_us",
	"vsg.call":       "self.vsg_call_us",
	"vsg.resolve":    "self.vsg_resolve_us",
	"vsg.callremote": "self.vsg_callremote_us",
	"transport.http": "self.transport_http_us",
	"device.invoke":  "self.device_invoke_us",
	"vsr.register":   "self.vsr_register_us",
	"vsr.unregister": "self.vsr_unregister_us",
	"vsr.find":       "self.vsr_find_us",
}

// OpBreakdown splits each op tree's latency into per-layer self time:
// for every root span named "op", the self time of each layer summed
// over the tree. It returns, per layer, one value for each op that
// passes through the layer, and the number of op trees.
func OpBreakdown(spans []Span) (map[string][]time.Duration, int) {
	root := make([]int, len(spans))
	for i := range spans {
		root[i] = -2
	}
	var find func(i int) int
	find = func(i int) int {
		if root[i] != -2 {
			return root[i]
		}
		root[i] = -1 // cycle guard
		if p := spans[i].Parent; p >= 0 && p < len(spans) {
			root[i] = find(p)
		} else if spans[i].Name == "op" {
			root[i] = i
		}
		return root[i]
	}
	self := spanSelfTimes(spans)
	ops := make(map[int]map[string]time.Duration)
	var roots []int // in span order, so the output is deterministic
	for i := range spans {
		r := find(i)
		if r < 0 {
			continue
		}
		if ops[r] == nil {
			ops[r] = make(map[string]time.Duration)
			roots = append(roots, r)
		}
		ops[r][spans[i].Name] += self[i]
	}
	out := make(map[string][]time.Duration)
	for _, r := range roots {
		for n, v := range ops[r] {
			out[n] = append(out[n], v)
		}
	}
	return out, len(ops)
}

// LayerSum adds up the layers' typical self times per op: each layer's
// median over the ops that pass through it, weighted by the share of
// ops that do. For ops that all take the same path this is the sum of
// the per-layer medians, which should land near the op median if the
// spans cover the blocking path.
func LayerSum(layers map[string][]time.Duration, ops int) time.Duration {
	if ops == 0 {
		return 0
	}
	var sum float64
	for _, per := range layers {
		sum += p50us(per) * float64(len(per)) / float64(ops)
	}
	return time.Duration(math.Round(sum * float64(time.Microsecond)))
}

// analyzeTrace turns one traced phase's spans into the per-layer
// latency metrics, the layer-sum check and the tracing overhead.
func (d *runner) analyzeTrace(spans []Span, untracedP50 float64, p *Phase) {
	traced, _ := Quantile(p.Latencies(), 0.5)
	d.set("trace.untraced_op_p50_ms", untracedP50)
	d.set("trace.traced_op_p50_ms", traced)
	d.set("trace.overhead_ms", traced-untracedP50)
	d.set("trace.spans", float64(len(spans)))
	dur := Durations(spans)
	d.set("vsg.call_p50_us", p50us(dur["vsg.call"]))
	d.set("vsg.call_p99_us", p99us(dur["vsg.call"]))
	d.set("vsg.resolve_p50_us", p50us(dur["vsg.resolve"]))
	d.set("device.invoke_p50_us", p50us(dur["device.invoke"]))
	d.set("transport.http_rtt_p50_us", p50us(dur["transport.http"]))
	layers, ops := OpBreakdown(spans)
	for name, per := range layers {
		if metric, ok := selfLayers[name]; ok {
			d.set(metric, p50us(per))
		}
	}
	d.set("trace.layer_sum_ms", ms(LayerSum(layers, ops)))
}

// registryLayers reports the registry-client spans and watch timings of
// a phase driven by m.
func (d *runner) registryLayers(m *regMix, spans []Span) {
	dur := Durations(spans)
	d.set("vsr.register_p50_us", p50us(dur["vsr.register"]))
	d.set("vsr.unregister_p50_us", p50us(dur["vsr.unregister"]))
	d.set("vsr.find_p50_us", p50us(dur["vsr.find"]))
	m.mu.Lock()
	defer m.mu.Unlock()
	d.set("vsr.watch_local_p50_us", p50us(m.local))
	d.set("peer.hop_p50_us", p50us(m.hop))
	d.set("peer.hop_p99_us", p99us(m.hop))
}

// registryCounters reports a home registry's counters.
func (d *runner) registryCounters(st homeStats) {
	d.set("uddi.saves", float64(st.Saves))
	d.set("uddi.finds", float64(st.Finds))
	d.set("uddi.shard_imbalance", imbalance(st.ShardLoads))
	d.set("wal.fsyncs", float64(st.Durability.Fsyncs))
	d.set("wal.snapshots", float64(st.Durability.Snapshots))
}

// imbalance is max/mean of per-shard operation counts.
func imbalance(loads []int64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum, mx int64
	for _, l := range loads {
		sum += l
		mx = max(mx, l)
	}
	if sum == 0 {
		return 0
	}
	return float64(mx) * float64(len(loads)) / float64(sum)
}

// wireCounters reports handshake, rekey and downgrade counts.
func (d *runner) wireCounters(ws ...map[string]int64) {
	for _, k := range []string{"handshakes", "rekeys", "downgrades"} {
		total := int64(0)
		for _, w := range ws {
			total += w[k]
		}
		d.set("transport."+k, float64(total))
	}
}

// callLayers reports the call workloads' counters and replays.
func (d *runner) callLayers(c *callEnv, cl *caller, before, after homeStats) {
	st := c.gw.CallStats()
	h := c.gw.Health()
	d.set("vsg.outbound", float64(st.Outbound))
	d.set("vsg.loopback", float64(st.Loopback))
	d.set("vsg.inbound", float64(after.Calls.Inbound-before.Calls.Inbound))
	d.set("vsg.denied", float64(after.Calls.Denied))
	d.set("vsg.cache_invalidations", float64(h.CacheInvalidations))
	d.set("vsg.watch_deltas", float64(h.WatchDeltas))
	d.registryCounters(after)

	sample := cl.calls[:min(len(cl.calls), 1000)]
	xmlUs, xmlBytes, binUs, binBytes := codecReplay(sample)
	codec := xmlUs
	if c.away {
		d.set("soap.bin_codec_us", binUs)
		d.set("soap.bin_bytes", binBytes)
		codec = binUs
		ws := wireTotals(c.fedB.WireStats())
		d.wireCounters(ws)
		auth := replayAuth(c.idA, c.idB)
		authz := timeEach(len(sample), func(i int) { _ = auth.Authorize(homeB, sample[i].service) })
		d.set("identity.authorize_us", authz)
		d.set("identity.handshake_us", handshakeReplay(c.idA, c.idB))
		calls := after.Calls.Inbound - before.Calls.Inbound
		if calls > 0 {
			recs := float64(after.Audit.Seq - before.Audit.Seq)
			d.set("audit.records_per_op", recs/float64(calls))
		}
		d.set("audit.record_us", auditReplay())
		for _, ps := range c.fedB.PeerStatus() {
			d.set("peer.applied", float64(ps.Applied))
			d.set("peer.resyncs", float64(ps.Resyncs))
		}
		d.set("call.residual_us", d.values["vsg.call_p50_us"]-d.values["device.invoke_p50_us"]-codec-authz)
	} else {
		d.set("soap.xml_codec_us", xmlUs)
		d.set("soap.xml_bytes", xmlBytes)
		d.set("call.residual_us", d.values["vsg.call_p50_us"]-d.values["device.invoke_p50_us"]-codec)
	}
}

// wireTotals sums a WireStats snapshot's counters.
func wireTotals(ws transport.WireStats) map[string]int64 {
	out := map[string]int64{}
	for _, l := range ws {
		out["handshakes"] += int64(l.Handshakes)
		out["rekeys"] += int64(l.Rekeys)
		out["downgrades"] += int64(l.Downgrades)
	}
	return out
}

// timeEach times f over n iterations and returns the mean in µs.
func timeEach(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	t := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return us(time.Since(t)) / float64(n)
}

// codecReplay replays the workload's own calls through both codecs:
// request encode+decode and response encode+decode per call, returning
// mean µs and mean bytes (request+response) for the XML and the binary
// codec.
func codecReplay(calls []callInput) (xmlUs, xmlBytes, binUs, binBytes float64) {
	if len(calls) == 0 {
		return
	}
	soapCalls := make([]soap.Call, len(calls))
	for i, c := range calls {
		desc := echoDescription(0)
		op, _ := desc.Interface.Operation(c.op)
		sc := soap.Call{Namespace: vsg.Namespace(c.service), Operation: c.op}
		for j, p := range op.Inputs {
			sc.Args = append(sc.Args, soap.Arg{Name: p.Name, Value: c.args[j]})
		}
		soapCalls[i] = sc
	}
	var xb, bb int
	xmlUs = timeEach(len(calls), func(i int) {
		c := soapCalls[i]
		req, _ := soap.EncodeCall(c)
		dc, _ := soap.DecodeCall(req)
		result := echoResult(dc)
		resp, _ := soap.EncodeResponse(c.Namespace, c.Operation, result)
		_, _, _ = soap.DecodeResponse(resp)
		xb += len(req) + len(resp)
	})
	binUs = timeEach(len(calls), func(i int) {
		c := soapCalls[i]
		req, _ := soap.EncodeBinCall(c)
		dc, _ := soap.DecodeBinCall(req)
		resp, _ := soap.EncodeBinResponse(echoResult(dc))
		_, _, _ = soap.DecodeBinResponse(resp)
		bb += len(req) + len(resp)
	})
	n := float64(len(calls))
	return xmlUs, float64(xb) / n, binUs, float64(bb) / n
}

// echoResult is what the echo device answers to a decoded call.
func echoResult(c soap.Call) service.Value {
	if len(c.Args) == 0 {
		return service.Void()
	}
	return c.Args[0].Value
}

// replayAuth builds home A's authentication context as the away-call
// SUT configures it.
func replayAuth(idA, idB *identity.Identity) *identity.Auth {
	a := identity.NewAuth(homeA)
	_ = a.SetIdentity(idA)
	_ = a.Trust(homeB, idB.PublicKey())
	return a
}

// handshakeReplay prices one session handshake between the two homes:
// NewSessionClient, AcceptSession, Finish. Mean µs over 50.
func handshakeReplay(idA, idB *identity.Identity) float64 {
	a := replayAuth(idA, idB)
	b := identity.NewAuth(homeB)
	_ = b.SetIdentity(idB)
	_ = b.Trust(homeA, idA.PublicKey())
	return timeEach(50, func(int) {
		hc, err := b.NewSessionClient()
		if err != nil {
			return
		}
		accept, _, err := a.AcceptSession(hc.Hello())
		if err != nil {
			return
		}
		_, _ = hc.Finish(accept)
	})
}

// auditReplay prices Log.Record of a call admission on a memory log.
func auditReplay() float64 {
	l, err := audit.New(audit.Options{})
	if err != nil {
		return 0
	}
	defer l.Close()
	return timeEach(2000, func(i int) {
		l.Record(audit.Event{Type: audit.CallAdmit, Caller: homeB, Service: "bench:echo-000", Op: opInt, Detail: "wire"})
	})
}

// saveReplay prices registry Save of n device entries on an in-memory
// registry and on a durable one with the default fsync policy — the
// difference is the WAL's share of a write — and reports the WAL bytes
// one write appends. n stays under the snapshot interval, so no
// snapshot lands inside the measurement.
func saveReplay(dir string, n int) (mem, durable, walBytes float64) {
	entries := make([]uddi.Entry, n)
	for i := range entries {
		e, err := vsr.EntryFor(deviceDescription(i), deviceEndpoint(i))
		if err != nil {
			return 0, 0, 0
		}
		entries[i] = e
	}
	srv := uddi.NewServer()
	mem = timeEach(n, func(i int) { srv.Save(entries[i], time.Hour) })
	srv.Close()
	wdir := filepath.Join(dir, "wal-replay")
	defer os.RemoveAll(wdir)
	ds, err := uddi.NewDurableServer(uddi.DurabilityOptions{Dir: wdir})
	if err != nil {
		return mem, 0, 0
	}
	durable = timeEach(n, func(i int) { ds.Save(entries[i], time.Hour) })
	if st := ds.Durability(); st.Appends > 0 {
		walBytes = float64(st.WALBytes) / float64(st.Appends)
	}
	ds.CrashClose()
	return mem, durable, walBytes
}

// walLayers reports the registry-write replays.
func (d *runner) walLayers() {
	mem, durable, walBytes := saveReplay(d.dir, 1000)
	d.set("uddi.save_us", mem)
	d.set("wal.save_us", durable)
	d.set("wal.bytes_per_write", walBytes)
}

// trimScope strips a home scope from an imported service ID.
func trimScope(id string) string {
	if i := strings.IndexByte(id, '/'); i >= 0 {
		return id[i+1:]
	}
	return id
}
