package main

import "strings"

// modules are the repository's layers, named after their packages under
// internal/. Each gets a <module>.cpu_share from the traced run's CPU
// profile.
var modules = []string{
	"sfi", "graft", "txn", "lock", "sched", "simclock", "resource", "kernel", "crash",
	"fs", "vmm", "netstk", "tenant", "guard", "fault", "trace", "redteam", "fleet",
	"campaign", "harness",
}

type layerMetric struct{ name, unit, better string }

// perLayerMetrics is every metric the traced run reports, in
// BENCHMARK.json order. A metric a workload cannot observe from outside
// the program reads -1.
//
// Counts of simulated events are reported per operation (unit "…/op"),
// not as totals over the traced half: the half is fixed in host time, so
// a faster program runs more operations and every total would grow.
// Per operation, a count depends only on the seed and the program's
// behaviour, and a speed-only change leaves it as it was.
var perLayerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"bench.tracing_overhead", "ratio", "lower"},
		{"bench.other_cpu_share", "share", "lower"},

		{"sfi.host_ns_per_step", "ns", "lower"},
		{"sfi.steps_per_op", "1/op", "lower"},
		{"sfi.cycles_per_op", "1/op", "lower"},
		{"sfi.build_ms", "ms", "lower"},

		{"graft.install_us", "us", "lower"},
		{"graft.encrypt_us_p50", "us", "lower"},
		{"graft.invocations_per_op", "1/op", "higher"},
		{"graft.commits_per_op", "1/op", "higher"},
		{"graft.aborts_per_op", "1/op", "lower"},
		{"graft.commit_ratio", "ratio", "higher"},
		{"graft.watchdog_fires_per_op", "1/op", "lower"},

		{"txn.begins_per_op", "1/op", "higher"},
		{"txn.commits_per_op", "1/op", "higher"},
		{"txn.aborts_per_op", "1/op", "lower"},
		{"txn.undos_run_per_op", "1/op", "lower"},
		{"txn.abort_ratio", "ratio", "lower"},

		{"lock.acquisitions_per_op", "1/op", "higher"},
		{"lock.contentions_per_op", "1/op", "lower"},
		{"lock.timeouts_per_op", "1/op", "lower"},

		{"fs.read_us_p50", "us", "lower"},
		{"fs.read_us_p99", "us", "lower"},
		{"vmm.touch_us_p50", "us", "lower"},
		{"vmm.evictions_per_op", "1/op", "higher"},
		{"sched.yield_us_p50", "us", "lower"},

		{"crash.checkpoints_per_op", "1/op", "higher"},
		{"crash.panics_per_op", "1/op", "higher"},
		{"crash.recoveries_per_op", "1/op", "higher"},
		{"crash.scoped_recoveries_per_op", "1/op", "higher"},
		{"crash.widened_recoveries_per_op", "1/op", "lower"},
		{"crash.rolled_back_bytes_per_op", "bytes/op", "lower"},

		{"tenant.socket_denials_per_op", "1/op", "lower"},
		{"tenant.expulsions_per_op", "1/op", "lower"},
		{"fleet.replacements_per_op", "1/op", "higher"},
		{"fleet.recovered_per_op", "1/op", "higher"},
		{"fleet.committed_lines_per_op", "1/op", "higher"},
		{"fleet.audit_violations_per_op", "1/op", "lower"},

		{"campaign.generations_per_op", "1/op", "higher"},
		{"campaign.minimize_runs_per_op", "1/op", "higher"},
		{"campaign.novel_per_op", "1/op", "higher"},
		{"campaign.corpus_per_op", "1/op", "higher"},
		{"campaign.signatures_per_op", "1/op", "higher"},

		{"redteam.cases_per_op", "1/op", "higher"},
		{"redteam.escapes_per_op", "1/op", "lower"},

		{"fault.injected_per_op", "1/op", "higher"},
		{"fault.host_ms_per_injection", "ms", "lower"},
		{"trace.events_per_op", "1/op", "higher"},
		{"trace.host_us_per_event", "us", "lower"},
		{"kernel.virt_ms_per_op", "ms/op", "higher"},
		{"kernel.host_ms_per_virt_s", "ms", "lower"},
	}
	for _, m := range modules {
		ms = append(ms, layerMetric{m + ".cpu_share", "share", "lower"})
	}
	return ms
}()

// perLayer derives the traced run's per-layer metrics from the CPU
// profile, the span summary and the counters the workload stored in
// b.layers.
func (b *bench) perLayer() {
	l := b.layers
	if b.cpuNS > 0 {
		for _, m := range modules {
			l[m+".cpu_share"] = float64(b.cpu[m]) / float64(b.cpuNS)
		}
		l["bench.other_cpu_share"] = float64(b.cpu["other"]) / float64(b.cpuNS)
		if steps := l["sfi.steps"]; steps > 0 {
			l["sfi.host_ns_per_step"] = float64(b.cpu["sfi"]) / steps
		}
	}
	if b.tracedUnits > 0 && b.untracedUnits > 0 {
		untraced := b.untracedUnits / b.untracedTime.cpu.Seconds()
		traced := b.tracedUnits / b.tracedTime.cpu.Seconds()
		l["bench.tracing_overhead"] = untraced / traced
	}

	spans := []struct {
		metric, span string
		q, scale     float64
	}{
		{"sfi.build_ms", spanBuild, 0.5, 1e-3},
		{"graft.install_us", spanInstall, 0.5, 1},
		{"graft.encrypt_us_p50", spanInvoke, 0.5, 1},
		{"fs.read_us_p50", spanRead, 0.5, 1},
		{"fs.read_us_p99", spanRead, 0.99, 1},
		{"vmm.touch_us_p50", spanTouch, 0.5, 1},
		{"sched.yield_us_p50", spanYield, 0.5, 1},
	}
	for _, s := range spans {
		if us := b.tr.quantileUS(s.span, s.q); us >= 0 {
			l[s.metric] = us * s.scale
		}
	}

	if c, ok := l["graft.commits"]; ok {
		if a := l["graft.aborts"]; c+a > 0 {
			l["graft.commit_ratio"] = c / (c + a)
		}
	}
	if begins, ok := l["txn.begins"]; ok && begins > 0 {
		l["txn.abort_ratio"] = l["txn.aborts"] / begins
	}
	hostMS := float64(b.tracedTime.cpu) / 1e6
	if v := l["kernel.virt_ms"]; v > 0 {
		l["kernel.host_ms_per_virt_s"] = hostMS / (v / 1e3)
	}
	if v := l["trace.events"]; v > 0 {
		l["trace.host_us_per_event"] = hostMS * 1e3 / v
	}
	if v := l["fault.injected"]; v > 0 {
		l["fault.host_ms_per_injection"] = hostMS / v
	}

	// The workloads accumulate totals under the name without "_per_op";
	// the totals stay the denominators above.
	if b.tracedOps > 0 {
		for _, m := range perLayerMetrics {
			if !strings.HasSuffix(m.unit, "/op") {
				continue
			}
			if total, ok := l[strings.TrimSuffix(m.name, "_per_op")]; ok {
				l[m.name] = total / float64(b.tracedOps)
			}
		}
	}
}

// Span names: the public function each span wraps.
const (
	spanBuild    = "Toolchain.Build"
	spanInstall  = "Registry.Install"
	spanRead     = "OpenFile.ReadAt"
	spanTouch    = "VAS.Touch"
	spanYield    = "Thread.Yield"
	spanInvoke   = "Point.Invoke"
	spanChaos    = "RunChaos"
	spanFleet    = "RunFleet"
	spanCampaign = "RunCampaign"
)

// add accumulates a counter into the per-layer metrics.
func (b *bench) add(name string, v float64) { b.layers[name] += v }
