package main

// BENCHMARK.json at the repository root is the one list of workloads and
// metrics, with their units and bounds: the harness reads it and emits from
// it. This file holds only what the declaration cannot say.

// specPath and outDir are relative to the repository root, which is where
// run.sh starts the binary.
const (
	specPath = "BENCHMARK.json"
	outDir   = "bench/out" // traces, profiles and the suite's result.json
)

// benchSpec is BENCHMARK.json, as far as the harness reads it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// absFloor is the absolute slack -compare adds to a relative bound, for
// metrics whose small values make a pure ratio meaningless.
var absFloor = map[string]float64{
	"setup_s":     0.05,
	"peak_rss_mb": 8,
}

// simCounts are the per-layer metrics that are model outputs: they repeat
// exactly for a seed, and a change that claims a host-time gain must leave
// them bit-identical, so -compare reports every one that differs.
var simCounts = []string{
	"sim.events", "sim.closure_fired_pct", "sim.placed_overflow",
	"netsim.frames_tx", "netsim.frames_lost", "netsim.queue_wait_ns_per_frame", "netsim.queue_high_water_kb",
	"device.fanout_ratio",
	"exchange.msgs_published", "exchange.orders_accepted",
	"firm.strat_msgs_in", "firm.orders_per_kmsg",
	"core.sim_t2t_p50_us", "core.sim_t2t_p99_us", "core.sim_net_share_pct",
}

// cpuLayers are the layers a CPU sample can be charged to. Their cpu_pct
// shares plus runtime.bg_cpu_pct and other.cpu_pct sum to 100.
var cpuLayers = []string{
	"sim", "netsim", "device", "pkt", "feed", "orderentry",
	"market", "exchange", "firm", "core", "redundancy", "replication",
}

// shareNames lists the metrics whose values sum to 100 in a traced run.
func shareNames() []string {
	out := make([]string, 0, len(cpuLayers)+2)
	for _, l := range cpuLayers {
		out = append(out, l+".cpu_pct")
	}
	return append(out, "runtime.bg_cpu_pct", "other.cpu_pct")
}

var cpuOverlays = []string{"runtime.mem_cpu_pct", "runtime.maps_cpu_pct", "runtime.gc_cpu_pct", "runtime.alloc_cpu_pct"}

// spanOf maps a span-share metric to the harness span it reports, as a share
// of the traced repetition's wall time (0 on a workload that never opens the
// span, which is why they are shares and not seconds).
var spanOf = map[string]string{
	"core.e19_pct":             "core.RunFailover",
	"core.e21_pct":             "core.RunOEFailover",
	"core.e22_pct":             "core.RunWANRedundancy",
	"core.e23_pct":             "core.RunExchangeFailover",
	"feed.gen_encode_pct":      "feed.gen_encode",
	"pkt.parse_pct":            "pkt.frame_parse",
	"feed.reassemble_pct":      "feed.reassemble",
	"feed.normalize_pct":       "feed.normalize",
	"market.book_apply_pct":    "market.book_apply",
	"orderentry.roundtrip_pct": "orderentry.roundtrip",
}

// feedStages are the codec-stream spans a feed message passes through;
// feed.msgs_per_s is the messages pushed over their summed self time.
var feedStages = []string{"feed.gen_encode", "pkt.frame_parse", "feed.reassemble", "feed.normalize", "market.book_apply"}
