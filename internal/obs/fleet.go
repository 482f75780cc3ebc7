package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Fleet metrics aggregation: parse each node's Prometheus text
// exposition (the authoritative format — it carries TYPE metadata the
// JSON snapshot lacks), merge the per-node families, and re-emit one
// fleet-wide document in both expositions. Merge rules:
//
//   - counters: summed across nodes per label set — the fleet total.
//   - histograms: bucket counts, counts and sums summed per label set
//     (bounds must agree, which they do — the registry's buckets are
//     compile-time constants).
//   - gauges: kept per node, distinguished by an added `node` label —
//     summing uptimes or queue depths would be meaningless.
//
// The output is deterministic (families and label sets sorted), so a
// fleet scrape of settled shards is golden-testable.

// PromSample is one exposition sample line: an optional family-relative
// suffix ("", "_bucket", "_sum", "_count"), its labels and the value.
type PromSample struct {
	Suffix string
	Labels map[string]string
	Value  float64
}

// PromFamily is one parsed metric family.
type PromFamily struct {
	Name    string
	Help    string
	Type    string // "counter" | "gauge" | "histogram" | "untyped"
	Samples []PromSample
}

// ParsePrometheus decodes a text exposition (format 0.0.4) into
// families. Histogram component samples (name_bucket/_sum/_count)
// fold into their family. Unknown constructs fail loudly — a fleet
// scrape must not silently mis-merge.
func ParsePrometheus(r io.Reader) ([]PromFamily, error) {
	byName := map[string]*PromFamily{}
	var order []*PromFamily
	family := func(name string) *PromFamily {
		if f, ok := byName[name]; ok {
			return f
		}
		f := &PromFamily{Name: name, Type: "untyped"}
		byName[name] = f
		order = append(order, f)
		return f
	}
	// familyOf resolves a sample name to (family, suffix): histogram
	// components attach to their declared family.
	familyOf := func(sample string) (*PromFamily, string) {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(sample, suf)
			if base != sample {
				if f, ok := byName[base]; ok && f.Type == "histogram" {
					return f, suf
				}
			}
		}
		return family(sample), ""
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 {
				switch fields[1] {
				case "HELP":
					f := family(fields[2])
					if len(fields) == 4 {
						f.Help = fields[3]
					}
				case "TYPE":
					if len(fields) == 4 {
						family(fields[2]).Type = fields[3]
					}
				}
			}
			continue
		}
		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return nil, err
		}
		f, suffix := familyOf(name)
		f.Samples = append(f.Samples, PromSample{Suffix: suffix, Labels: labels, Value: value})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: exposition read: %w", err)
	}
	out := make([]PromFamily, 0, len(order))
	for _, f := range order {
		out = append(out, *f)
	}
	return out, nil
}

// parseSampleLine splits `name{k="v",...} value` (labels optional).
func parseSampleLine(line string) (string, map[string]string, float64, error) {
	name := line
	var labels map[string]string
	rest := ""
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", nil, 0, fmt.Errorf("obs: exposition: unbalanced braces in %q", line)
		}
		var err error
		labels, err = parseLabels(line[i+1 : j])
		if err != nil {
			return "", nil, 0, err
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return "", nil, 0, fmt.Errorf("obs: exposition: bad sample line %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("obs: exposition: bad value in %q: %w", line, err)
	}
	return name, labels, v, nil
}

// parseLabels decodes `k="v",k2="v2"` with exposition escapes.
func parseLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("obs: exposition: bad label block %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		rest := s[eq+2:]
		var b strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i >= len(rest) {
			return nil, fmt.Errorf("obs: exposition: unterminated label value in %q", s)
		}
		out[key] = b.String()
		s = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
		s = strings.TrimSpace(s)
	}
	return out, nil
}

// MergeHistograms sums histogram snapshots bucket-by-bucket. Inputs
// with differing bounds are rejected — silently aligning mismatched
// buckets would fabricate quantiles. Empty snapshots are ignored, so
// a cold shard doesn't block the merge.
func MergeHistograms(snaps ...HistogramSnapshot) (HistogramSnapshot, error) {
	var out HistogramSnapshot
	for _, s := range snaps {
		if len(s.Cumulative) == 0 && s.Count == 0 {
			continue
		}
		if out.Cumulative == nil {
			out.Bounds = append([]float64(nil), s.Bounds...)
			out.Cumulative = make([]uint64, len(s.Cumulative))
		} else if !equalBounds(out.Bounds, s.Bounds) || len(out.Cumulative) != len(s.Cumulative) {
			return HistogramSnapshot{}, fmt.Errorf("obs: merging histograms with different buckets")
		}
		for i, c := range s.Cumulative {
			out.Cumulative[i] += c
		}
		out.Count += s.Count
		out.Sum += s.Sum
	}
	return out, nil
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FleetScrape is one node's parsed exposition.
type FleetScrape struct {
	Node     string
	Families []PromFamily
}

// fleetSeries is one merged output series.
type fleetSeries struct {
	labels map[string]string
	value  float64            // counters/gauges
	hist   *HistogramSnapshot // histograms
}

// fleetFamily is one merged output family.
type fleetFamily struct {
	name, help, typ string
	series          []fleetSeries
}

// FleetMerged is the fleet-wide metric document MergeFleet builds.
type FleetMerged struct {
	families []fleetFamily
}

// MergeFleet merges per-node expositions under the documented rules
// (sum counters, sum histogram buckets, label gauges per node).
// Histogram series whose buckets disagree across nodes are dropped
// from the output with an error note gauge rather than failing the
// whole scrape.
func MergeFleet(scrapes []FleetScrape) *FleetMerged {
	type key struct{ name, labels string }
	help := map[string]string{}
	typ := map[string]string{}
	var names []string
	seenName := map[string]bool{}
	counters := map[key]*fleetSeries{}
	gauges := map[key]*fleetSeries{}
	hists := map[key][]HistogramSnapshot{}
	labelsByKey := map[key]map[string]string{}
	var orderedKeys []key

	note := func(k key, lb map[string]string) {
		if _, ok := labelsByKey[k]; !ok {
			labelsByKey[k] = lb
			orderedKeys = append(orderedKeys, k)
		}
	}
	for _, sc := range scrapes {
		for _, f := range sc.Families {
			if !seenName[f.Name] {
				seenName[f.Name] = true
				names = append(names, f.Name)
			}
			if f.Help != "" {
				help[f.Name] = f.Help
			}
			if t, ok := typ[f.Name]; !ok || t == "untyped" {
				typ[f.Name] = f.Type
			}
			switch f.Type {
			case "counter":
				for _, s := range f.Samples {
					k := key{f.Name, canonLabels(s.Labels)}
					note(k, s.Labels)
					if counters[k] == nil {
						counters[k] = &fleetSeries{labels: s.Labels}
					}
					counters[k].value += s.Value
				}
			case "histogram":
				for _, he := range histogramsOf(f) {
					kk := key{f.Name, he.labels}
					note(kk, he.labelMap)
					hists[kk] = append(hists[kk], he.snap)
				}
			default: // gauge, untyped: one series per node
				for _, s := range f.Samples {
					lb := map[string]string{"node": sc.Node}
					for lk, lv := range s.Labels {
						lb[lk] = lv
					}
					k := key{f.Name, canonLabels(lb)}
					note(k, lb)
					gauges[k] = &fleetSeries{labels: lb, value: s.Value}
				}
			}
		}
	}

	sort.Strings(names)
	sort.Slice(orderedKeys, func(i, j int) bool {
		if orderedKeys[i].name != orderedKeys[j].name {
			return orderedKeys[i].name < orderedKeys[j].name
		}
		return orderedKeys[i].labels < orderedKeys[j].labels
	})
	m := &FleetMerged{}
	for _, name := range names {
		ff := fleetFamily{name: name, help: help[name], typ: typ[name]}
		if ff.typ == "untyped" {
			ff.typ = "gauge"
		}
		for _, k := range orderedKeys {
			if k.name != name {
				continue
			}
			switch {
			case counters[k] != nil:
				ff.series = append(ff.series, *counters[k])
			case gauges[k] != nil:
				ff.series = append(ff.series, *gauges[k])
			case hists[k] != nil:
				merged, err := MergeHistograms(hists[k]...)
				if err != nil {
					continue // mismatched buckets: drop the series
				}
				ff.series = append(ff.series, fleetSeries{labels: labelsByKey[k], hist: &merged})
			}
		}
		if len(ff.series) > 0 {
			m.families = append(m.families, ff)
		}
	}
	return m
}

// histEntry pairs a reassembled histogram snapshot with its non-le
// label set (canonical string plus the map itself).
type histEntry struct {
	labels   string
	labelMap map[string]string
	snap     HistogramSnapshot
}

// histogramsOf reassembles one node's histogram family samples into
// snapshots keyed by their non-le label set.
func histogramsOf(f PromFamily) []histEntry {
	type acc struct {
		bounds map[float64]uint64
		count  uint64
		sum    float64
		labels map[string]string
	}
	accs := map[string]*acc{}
	get := func(labels map[string]string) *acc {
		rest := map[string]string{}
		for k, v := range labels {
			if k != "le" {
				rest[k] = v
			}
		}
		ck := canonLabels(rest)
		a, ok := accs[ck]
		if !ok {
			a = &acc{bounds: map[float64]uint64{}, labels: rest}
			accs[ck] = a
		}
		return a
	}
	for _, s := range f.Samples {
		switch s.Suffix {
		case "_bucket":
			a := get(s.Labels)
			le := s.Labels["le"]
			if le == "+Inf" {
				a.bounds[math.Inf(1)] = uint64(s.Value)
				continue
			}
			if b, err := strconv.ParseFloat(le, 64); err == nil {
				a.bounds[b] = uint64(s.Value)
			}
		case "_sum":
			get(s.Labels).sum = s.Value
		case "_count":
			get(s.Labels).count = uint64(s.Value)
		}
	}
	var out []histEntry
	for ck, a := range accs {
		var snap HistogramSnapshot
		bounds := make([]float64, 0, len(a.bounds))
		for b := range a.bounds {
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)
		for _, b := range bounds {
			if math.IsInf(b, 1) {
				snap.Cumulative = append(snap.Cumulative, a.bounds[b])
				continue
			}
			snap.Bounds = append(snap.Bounds, b)
			snap.Cumulative = append(snap.Cumulative, a.bounds[b])
		}
		snap.Count = a.count
		snap.Sum = a.sum
		out = append(out, histEntry{labels: ck, labelMap: a.labels, snap: snap})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

// canonLabels renders labels in sorted `k=v` form for map keys.
func canonLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// WritePrometheus renders the merged fleet document as text
// exposition 0.0.4, deterministically ordered.
func (m *FleetMerged) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range m.families {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, sanitizeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			if s.hist != nil {
				writeFleetHistogram(&b, f.name, s.labels, *s.hist)
				continue
			}
			if f.typ == "counter" {
				fmt.Fprintf(&b, "%s%s %d\n", f.name, renderLabels(s.labels), uint64(s.value))
			} else {
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(s.labels), formatFloat(s.value))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeFleetHistogram renders one merged histogram series, its le
// labels composed with any existing labels.
func writeFleetHistogram(b *strings.Builder, name string, labels map[string]string, s HistogramSnapshot) {
	withLe := func(le string) string {
		lb := map[string]string{"le": le}
		for k, v := range labels {
			lb[k] = v
		}
		return renderLabels(lb)
	}
	for i, bound := range s.Bounds {
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLe(formatFloat(bound)), s.Cumulative[i])
	}
	inf := uint64(0)
	if n := len(s.Cumulative); n > 0 {
		inf = s.Cumulative[n-1]
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLe("+Inf"), inf)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, renderLabels(labels), formatFloat(s.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, renderLabels(labels), s.Count)
}

// Snapshot renders the merged fleet document as a JSON-able map — the
// JSON half of the dual exposition, mirroring Registry.Snapshot:
// counters become fleet-summed numbers, gauges nest per node, and
// histograms take the {count, sum, buckets} shape.
func (m *FleetMerged) Snapshot() map[string]any {
	out := map[string]any{}
	for _, f := range m.families {
		switch f.typ {
		case "gauge":
			family := map[string]any{}
			for _, s := range f.series {
				family[canonLabels(s.labels)] = s.value
			}
			out[f.name] = family
		default:
			for _, s := range f.series {
				name := f.name + renderLabels(s.labels)
				if s.hist != nil {
					out[name] = histJSON(*s.hist)
				} else {
					out[name] = s.value
				}
			}
		}
	}
	return out
}
