package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics of the result line, each gated
// by a bound in BENCHMARK.json; they apply to, and are measured on,
// every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"rss_mb", "MiB"},
}

// infoMetrics are, per workload, the other end-to-end metrics that
// apply to it. Untraced runs measure and print them but leave them out
// of the result line: they do not apply to every workload, or their
// run-to-run spread on a shared 2-vCPU host exceeds the largest bound
// a gate may use (README.md, Steadiness).
var infoMetrics = map[string][]metricDef{
	"home-call": {opP50, opP99, maxRate},
	"away-call": {opP50, opP99, maxRate},
	"churn": {opP50, opP99, maxRate,
		{"propagate_p50_ms", "ms"}, {"propagate_p99_ms", "ms"},
		readP50, readP99},
	"failover": {opP50, opP99, readP50, readP99,
		{"unavailable_s", "s"}, {"recover_s", "s"}},
}

var (
	opP50   = metricDef{"op_p50_ms", "ms"}
	opP99   = metricDef{"op_p99_ms", "ms"}
	maxRate = metricDef{"max_rate_ops", "1/s"}
	readP50 = metricDef{"read_p50_ms", "ms"}
	readP99 = metricDef{"read_p99_ms", "ms"}
)

// layerMetrics are reported by traced runs. A layer the workload leaves
// idle reports 0.
var layerMetrics = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"vsg.call_p50_us", "us"},
	{"vsg.call_p99_us", "us"},
	{"vsg.resolve_p50_us", "us"},
	{"vsg.outbound", "count"},
	{"vsg.inbound", "count"},
	{"vsg.loopback", "count"},
	{"vsg.denied", "count"},
	{"vsg.cache_invalidations", "count"},
	{"vsg.watch_deltas", "count"},
	{"device.invoke_p50_us", "us"},
	{"soap.xml_codec_us", "us"},
	{"soap.bin_codec_us", "us"},
	{"soap.xml_bytes", "bytes"},
	{"soap.bin_bytes", "bytes"},
	{"transport.http_rtt_p50_us", "us"},
	{"transport.handshakes", "count"},
	{"transport.rekeys", "count"},
	{"transport.downgrades", "count"},
	{"call.residual_us", "us"},
	{"identity.authorize_us", "us"},
	{"identity.handshake_us", "us"},
	{"audit.records_per_op", "records/op"},
	{"audit.record_us", "us"},
	{"vsr.register_p50_us", "us"},
	{"vsr.unregister_p50_us", "us"},
	{"vsr.find_p50_us", "us"},
	{"vsr.watch_local_p50_us", "us"},
	{"uddi.saves", "count"},
	{"uddi.finds", "count"},
	{"uddi.shard_imbalance", "ratio"},
	{"uddi.save_us", "us"},
	{"wal.fsyncs", "count"},
	{"wal.snapshots", "count"},
	{"wal.bytes_per_write", "bytes"},
	{"wal.save_us", "us"},
	{"wal.replayed_records", "count"},
	{"peer.hop_p50_us", "us"},
	{"peer.hop_p99_us", "us"},
	{"peer.applied", "count"},
	{"peer.resyncs", "count"},
	{"replica.elect_s", "s"},
	{"replica.promotions", "count"},
	{"replica.lag_max", "count"},
	{"replica.handed_back", "count"},
	{"self.op_us", "us"},
	{"self.vsg_call_us", "us"},
	{"self.vsg_resolve_us", "us"},
	{"self.vsg_callremote_us", "us"},
	{"self.transport_http_us", "us"},
	{"self.device_invoke_us", "us"},
	{"self.vsr_register_us", "us"},
	{"self.vsr_unregister_us", "us"},
	{"self.vsr_find_us", "us"},
	{"trace.untraced_op_p50_ms", "ms"},
	{"trace.traced_op_p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.layer_sum_ms", "ms"},
	{"trace.spans", "count"},
}
