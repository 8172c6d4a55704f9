// Package obs is the fabric-wide observability layer: a labeled
// metrics registry (counters, gauges, log-scale histograms) and a
// sim-time span tracer.
//
// The registry is the one counter export. Subsystems keep their own
// counters (mostly plain struct fields) and export them through a
// ScrapeInto(r, labels) method that writes each series straight into
// the scrape's Registry; scrapers (scenario.World.Scrape) resolve the
// {tenant, net, broker, host} labels at scrape time, so per-layer
// series survive aggregation. One snapshot / delta / merge API covers
// the whole registry. Aggregations walk series in registration order;
// only the text and JSON renders (experiment tables, BENCH_* files)
// sort them.
//
// The tracer records spans stamped with sim.Time and threaded by a
// causality (trace) ID through the fabric's multi-step flows — Apply
// reconciliation, punch orchestration, broker re-home elections,
// migration rounds — so chaos tests can assert on timelines ("the
// re-home closed within three pulse periods of the kill") instead of
// terminal counters alone. All span methods are nil-receiver safe:
// subsystems trace unconditionally and a nil *Trace disables it.
package obs

import "strings"

// Labels identifies one series: the four dimensions the fabric slices
// by. Empty fields are omitted from renders; the zero value labels a
// global series. Labels is comparable and used as a map key.
type Labels struct {
	Tenant string
	Net    string
	Broker string
	Host   string
}

// String renders the label set as {tenant=...,net=...,broker=...,host=...}
// with empty dimensions omitted ("" for the zero value).
func (l Labels) String() string {
	var parts []string
	add := func(k, v string) {
		if v != "" {
			parts = append(parts, k+"="+v)
		}
	}
	add("tenant", l.Tenant)
	add("net", l.Net)
	add("broker", l.Broker)
	add("host", l.Host)
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}
