package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"capuchin/internal/sim"
)

// Prometheus text exposition (format version 0.0.4) for a Metrics
// registry. The naming convention is mechanical so any registry renders
// without per-metric configuration:
//
//   - every metric is prefixed "capuchin_";
//   - registry names are sanitized to the Prometheus charset — any rune
//     outside [a-zA-Z0-9_] (the registry's "/" and "-" separators,
//     spaces) becomes "_", so "fleet/queue-wait/CRITICAL" renders as
//     capuchin_fleet_queue_wait_CRITICAL;
//   - counters get the conventional "_total" suffix;
//   - virtual-time histograms get a "_seconds" suffix and render as
//     native Prometheus histograms: cumulative "le" buckets (the
//     registry's exponential microsecond layout converted to seconds),
//     a "+Inf" bucket, and _sum/_count series.
//
// The output is deterministic: metrics sort by sanitized name, floats
// format via strconv with the shortest round-trip representation, and no
// timestamps are emitted — equal registries render byte-identical text,
// which is what lets TestReplayAcrossJobs compare two expositions.

// promName sanitizes a registry name into the Prometheus metric charset.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + len("capuchin_"))
	b.WriteString("capuchin_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float the Prometheus way: shortest representation
// that round-trips, "+Inf"/"-Inf" for infinities.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format: counters first, then histograms, each group sorted by
// sanitized metric name. See the package-level convention above.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	type counter struct {
		name  string
		value int64
	}
	counters := make([]counter, 0, len(m.counters))
	for k, v := range m.counters {
		counters = append(counters, counter{promName(k) + "_total", v})
	}
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.name, c.name, c.value); err != nil {
			return err
		}
	}

	type hist struct {
		name string
		h    *Histogram
	}
	hists := make([]hist, 0, len(m.hists))
	for k, h := range m.hists {
		hists = append(hists, hist{promName(k) + "_seconds", h})
	}
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	for _, hh := range hists {
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", hh.name); err != nil {
			return err
		}
		var cum int64
		for i := 0; i < histBuckets-1; i++ {
			cum += hh.h.Buckets[i]
			le := promFloat(bucketUpper(i).Seconds())
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", hh.name, le, cum); err != nil {
				return err
			}
		}
		cum += hh.h.Buckets[histBuckets-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", hh.name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
			hh.name, promFloat(sim.Time(hh.h.Sum).Seconds()), hh.name, hh.h.Count); err != nil {
			return err
		}
	}
	return nil
}
