package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Label support for the metrics registry.  A labeled metric is an ordinary
// registry entry whose name is the canonical Prometheus series string
// `base{k1="v1",k2="v2"}` — label keys sorted, values escaped — so the
// existing registry maps, snapshots and JSON encoding carry labeled series
// with no schema change.  The exporter groups series into families (the name
// up to the label block) when emitting TYPE lines, and the parser folds them
// back.  This is what the per-peer link telemetry uses: one counter per
// (metric, peer) pair, e.g. pure_link_frames_sent_total{peer="3"}.

// Label is one key="value" pair on a metric series.
type Label struct {
	Key   string
	Value string
}

// SeriesName builds the canonical series string base{k="v",...}.  Keys are
// sorted, values escaped per the Prometheus text format (backslash, quote,
// newline).  No labels returns base unchanged.  Invalid base names or label
// keys panic, like the registry's bare-name check.
func SeriesName(base string, labels ...Label) string {
	checkName(base)
	if len(labels) == 0 {
		return base
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(a, b int) bool { return ls[a].Key < ls[b].Key })
	var sb strings.Builder
	sb.WriteString(base)
	sb.WriteByte('{')
	for i, l := range ls {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("obs: invalid label key %q on metric %q", l.Key, base))
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func validLabelKey(k string) bool {
	if k == "" {
		return false
	}
	for i, r := range k {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// unescapeLabelValue reverses escapeLabelValue.
func unescapeLabelValue(v string) string {
	if !strings.ContainsRune(v, '\\') {
		return v
	}
	var sb strings.Builder
	esc := false
	for _, r := range v {
		if esc {
			switch r {
			case 'n':
				sb.WriteByte('\n')
			default: // \\ and \" unescape to themselves
				sb.WriteRune(r)
			}
			esc = false
			continue
		}
		if r == '\\' {
			esc = true
			continue
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// seriesFamily returns the metric family of a series name: the name up to
// the label block, or the whole name when unlabeled.
func seriesFamily(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// splitSeries splits a canonical series string into family and label pairs
// (in written order).  A malformed label block returns ok=false.
func splitSeries(series string) (family string, labels []Label, ok bool) {
	i := strings.IndexByte(series, '{')
	if i < 0 {
		return series, nil, true
	}
	if !strings.HasSuffix(series, "}") {
		return "", nil, false
	}
	family = series[:i]
	body := series[i+1 : len(series)-1]
	for len(body) > 0 {
		eq := strings.Index(body, `="`)
		if eq < 0 {
			return "", nil, false
		}
		key := body[:eq]
		rest := body[eq+2:]
		// Find the closing quote, honoring backslash escapes.
		end := -1
		for j := 0; j < len(rest); j++ {
			if rest[j] == '\\' {
				j++
				continue
			}
			if rest[j] == '"' {
				end = j
				break
			}
		}
		if end < 0 {
			return "", nil, false
		}
		labels = append(labels, Label{Key: key, Value: unescapeLabelValue(rest[:end])})
		body = rest[end+1:]
		if strings.HasPrefix(body, ",") {
			body = body[1:]
		} else if len(body) > 0 {
			return "", nil, false
		}
	}
	return family, labels, true
}
