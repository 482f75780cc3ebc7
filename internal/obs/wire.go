package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Wire identity: how a trace crosses a process boundary. The sender
// serializes its trace ID plus the currently-open span ID as a
// traceparent-style HTTP header; the receiver continues the same
// trace ID and remembers the remote span as the logical parent of its
// root spans. Each process keeps allocating its own span IDs — the
// cross-process parent link is applied only when the per-node span
// sets (SpanSet) are merged (MergeSpanSets), which also remaps IDs so
// independently-allocated ranges cannot collide.

// TraceHeader is the HTTP header carrying the wire identity.
const TraceHeader = "Traceparent"

// traceparentVersion mirrors the W3C version-prefix convention; only
// "00" is produced or accepted.
const traceparentVersion = "00"

// FormatTraceparent renders the header value:
// "00-<trace id>-<16-hex span id>-01".
func FormatTraceparent(traceID string, span uint64) string {
	return fmt.Sprintf("%s-%s-%016x-01", traceparentVersion, traceID, span)
}

// ParseTraceparent decodes a header value produced by
// FormatTraceparent. ok is false for empty, malformed or
// unknown-version values.
func ParseTraceparent(v string) (traceID string, span uint64, ok bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) != 4 || parts[0] != traceparentVersion || parts[1] == "" || len(parts[2]) != 16 {
		return "", 0, false
	}
	id, err := strconv.ParseUint(parts[2], 16, 64)
	if err != nil {
		return "", 0, false
	}
	return parts[1], id, true
}

// Inject returns the traceparent header value for ctx's trace and
// currently-open span. ok is false on an untraced context — callers
// simply skip the header.
func Inject(ctx context.Context) (string, bool) {
	tr := FromContext(ctx)
	if tr == nil {
		return "", false
	}
	return FormatTraceparent(tr.ID, SpanIDFromContext(ctx)), true
}

// WireSpan is the JSON form of one completed span in a span set.
type WireSpan struct {
	ID          uint64            `json:"id"`
	Parent      uint64            `json:"parent,omitempty"`
	Name        string            `json:"name"`
	StartUnixNs int64             `json:"start_unix_ns"`
	DurNs       int64             `json:"dur_ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// SpanSet is one node's exported slice of a distributed trace — the
// GET /v1/debug/traces/{id}?format=spans document. RemoteParent, when
// non-zero, names the span (in the requesting process's ID space)
// this set's root spans belong under.
type SpanSet struct {
	TraceID      string     `json:"trace_id"`
	Node         string     `json:"node,omitempty"`
	RemoteParent uint64     `json:"remote_parent,omitempty"`
	Spans        []WireSpan `json:"spans"`
}

// SpanSet exports the trace's completed spans in wire form, stamped
// with the node identity (the shard's base URL, or a role name).
func (t *Trace) SpanSet(node string) SpanSet {
	ss := SpanSet{Node: node}
	if t == nil {
		return ss
	}
	ss.TraceID = t.ID
	ss.RemoteParent = t.remoteParent
	spans := t.Spans()
	ss.Spans = make([]WireSpan, 0, len(spans))
	for _, s := range spans {
		ws := WireSpan{
			ID:          s.ID,
			Parent:      s.Parent,
			Name:        s.Name,
			StartUnixNs: s.Start.UnixNano(),
			DurNs:       int64(s.Dur),
		}
		if len(s.Attrs) > 0 {
			ws.Attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				ws.Attrs[a.Key] = a.Value
			}
		}
		ss.Spans = append(ss.Spans, ws)
	}
	return ss
}

// JSON renders the span set.
func (s SpanSet) JSON() ([]byte, error) { return json.MarshalIndent(s, "", " ") }

// ParseSpanSet decodes a span-set document.
func ParseSpanSet(data []byte) (SpanSet, error) {
	var ss SpanSet
	if err := json.Unmarshal(data, &ss); err != nil {
		return SpanSet{}, fmt.Errorf("obs: span set: %w", err)
	}
	return ss, nil
}

// Merged is a multi-process trace assembled from per-node span sets:
// span IDs remapped into disjoint ranges, remote-parent links
// resolved, ready for Chrome export (one pid per node) or a single
// text tree.
type Merged struct {
	TraceID string
	Nodes   []string // process names, index = pid-1

	spans []Span
	node  map[uint64]int // remapped span ID -> Nodes index
	epoch time.Time
}

// MergeSpanSets builds one end-to-end trace from per-node span sets.
// sets[0] is the base process (typically the gateway); later sets'
// root spans are re-parented under their RemoteParent span when it
// exists in the base set, so e.g. shard compile stages nest under the
// gateway's proxy.route span. Sets whose TraceID disagrees with the
// base are skipped — a stale retention entry must not splice into the
// wrong request.
func MergeSpanSets(sets []SpanSet) *Merged {
	m := &Merged{node: map[uint64]int{}}
	var offset uint64
	baseIDs := map[uint64]uint64{} // base-set original ID -> remapped ID
	for i, set := range sets {
		if i == 0 {
			m.TraceID = set.TraceID
		} else if set.TraceID != m.TraceID {
			continue
		}
		name := set.Node
		if name == "" {
			name = fmt.Sprintf("node-%d", i)
		}
		nodeIdx := len(m.Nodes)
		m.Nodes = append(m.Nodes, name)
		ids := map[uint64]bool{}
		var maxID uint64
		for _, ws := range set.Spans {
			ids[ws.ID] = true
			if ws.ID > maxID {
				maxID = ws.ID
			}
		}
		for _, ws := range set.Spans {
			s := Span{
				ID:    ws.ID + offset,
				Name:  ws.Name,
				Start: time.Unix(0, ws.StartUnixNs),
				Dur:   time.Duration(ws.DurNs),
			}
			switch {
			case ws.Parent != 0 && ids[ws.Parent]:
				s.Parent = ws.Parent + offset
			case i > 0 && set.RemoteParent != 0:
				// Root of a remote set: splice under the base process's
				// injecting span when it exists there.
				if remapped, ok := baseIDs[set.RemoteParent]; ok {
					s.Parent = remapped
				}
			}
			if len(ws.Attrs) > 0 {
				keys := make([]string, 0, len(ws.Attrs))
				for k := range ws.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					s.Attrs = append(s.Attrs, Attr{Key: k, Value: ws.Attrs[k]})
				}
			}
			if i == 0 {
				baseIDs[ws.ID] = s.ID
			}
			m.node[s.ID] = nodeIdx
			m.spans = append(m.spans, s)
			if m.epoch.IsZero() || s.Start.Before(m.epoch) {
				m.epoch = s.Start
			}
		}
		offset += maxID
	}
	sort.Slice(m.spans, func(i, j int) bool {
		if !m.spans[i].Start.Equal(m.spans[j].Start) {
			return m.spans[i].Start.Before(m.spans[j].Start)
		}
		return m.spans[i].ID < m.spans[j].ID
	})
	return m
}

// Spans returns the merged, remapped spans sorted by start time.
func (m *Merged) Spans() []Span { return m.spans }

// SpanSet flattens the merged trace back into one wire span set —
// the document GET /v1/debug/traces/{id}?format=spans serves from a
// gateway. Per-node attribution survives as a "node" attribute on
// each span, since the single-node Node field cannot carry it.
func (m *Merged) SpanSet() SpanSet {
	ss := SpanSet{TraceID: m.TraceID, Node: "merged", Spans: make([]WireSpan, 0, len(m.spans))}
	for _, s := range m.spans {
		ws := WireSpan{
			ID:          s.ID,
			Parent:      s.Parent,
			Name:        s.Name,
			StartUnixNs: s.Start.UnixNano(),
			DurNs:       int64(s.Dur),
		}
		ws.Attrs = make(map[string]string, len(s.Attrs)+1)
		for _, a := range s.Attrs {
			ws.Attrs[a.Key] = a.Value
		}
		if n := m.NodeOf(s.ID); n != "" {
			ws.Attrs["node"] = n
		}
		ss.Spans = append(ss.Spans, ws)
	}
	return ss
}

// NodeOf returns the process name a remapped span belongs to.
func (m *Merged) NodeOf(spanID uint64) string {
	if i, ok := m.node[spanID]; ok && i < len(m.Nodes) {
		return m.Nodes[i]
	}
	return ""
}

// ChromeJSON renders the merged trace as one Chrome trace-event
// document with one pid per node (named by a process_name metadata
// event) so chrome://tracing shows each process on its own track.
// Every slice carries its remapped span/parent IDs in args, making
// the cross-process parent links explicit in the JSON itself.
func (m *Merged) ChromeJSON() ([]byte, error) {
	doc := chromeDoc{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(m.spans)+len(m.Nodes))}
	for i, name := range m.Nodes {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: i + 1, Tid: 1,
			Args: map[string]string{"name": name},
		})
	}
	for _, s := range m.spans {
		ev := chromeEvent{
			Name: s.Name,
			Cat:  "compile",
			Ph:   "X",
			Ts:   usSince(m.epoch, s.Start),
			Dur:  float64(s.Dur.Microseconds()),
			Pid:  m.node[s.ID] + 1,
			Tid:  1,
		}
		ev.Args = map[string]string{
			"span_id":   strconv.FormatUint(s.ID, 10),
			"parent_id": strconv.FormatUint(s.Parent, 10),
		}
		for _, a := range s.Attrs {
			ev.Args[a.Key] = a.Value
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	return json.MarshalIndent(doc, "", " ")
}

// Tree renders the merged trace as one indented text tree: remote
// roots nest under the span that injected the wire identity, so a
// gateway-routed compile reads top-to-bottom across processes.
func (m *Merged) Tree() string {
	tr := &Trace{ID: m.TraceID, start: m.epoch}
	for _, s := range m.spans {
		sc := s
		if node := m.NodeOf(s.ID); node != "" {
			// Annotate process transitions only: a span on the same node
			// as its parent inherits the context visually.
			if pn := m.NodeOf(s.Parent); s.Parent == 0 || pn != node {
				sc.Attrs = append(append([]Attr(nil), s.Attrs...), Attr{Key: "node", Value: node})
			}
		}
		tr.spans = append(tr.spans, sc)
	}
	return tr.Tree()
}
