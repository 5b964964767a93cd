package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Label is one key="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// Expo wraps an io.Writer with per-family HELP/TYPE deduplication. The
// Prometheus text format allows each family header at most once, but a
// metrics endpoint assembles its output from several independent collectors
// (broker, semantics, subindex, cluster) that may emit different label sets
// of the same family; routing them all through one Expo keeps the combined
// exposition valid. All Write* helpers and Histogram.WriteMetrics detect an Expo
// destination automatically.
type Expo struct {
	w    io.Writer
	seen map[string]bool
}

// NewExpo wraps w for one scrape.
func NewExpo(w io.Writer) *Expo {
	return &Expo{w: w, seen: make(map[string]bool)}
}

// Write passes through to the underlying writer, so an Expo can stand in
// anywhere an io.Writer is expected (for example a Collector interface).
func (e *Expo) Write(p []byte) (int, error) { return e.w.Write(p) }

// header writes the HELP/TYPE header of a family, at most once per Expo.
func header(w io.Writer, name, typ, help string) {
	if e, ok := w.(*Expo); ok {
		if e.seen[name] {
			return
		}
		e.seen[name] = true
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// formatLabels renders a {k="v",...} label block ("" when empty). Values
// are escaped per the exposition format (backslash, quote, newline).
func formatLabels(labels []Label, extra ...Label) string {
	if len(labels)+len(extra) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	n := 0
	write := func(l Label) {
		if n > 0 {
			sb.WriteByte(',')
		}
		n++
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	for _, l := range labels {
		write(l)
	}
	for _, l := range extra {
		write(l)
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WriteCounter emits one cumulative counter.
func WriteCounter(w io.Writer, name, help string, value uint64) {
	header(w, name, "counter", help)
	fmt.Fprintf(w, "%s %d\n", name, value)
}

// WriteCounterVec emits one labeled series of a counter family. Call it
// repeatedly with different label sets; the family header is emitted once
// when writing through an Expo.
func WriteCounterVec(w io.Writer, name, help string, labels []Label, value uint64) {
	header(w, name, "counter", help)
	fmt.Fprintf(w, "%s%s %d\n", name, formatLabels(labels), value)
}

// WriteCounterVecFloat emits one labeled series of a float counter family.
func WriteCounterVecFloat(w io.Writer, name, help string, labels []Label, value float64) {
	header(w, name, "counter", help)
	fmt.Fprintf(w, "%s%s %s\n", name, formatLabels(labels), formatFloat(value))
}

// WriteGauge emits one integer gauge.
func WriteGauge(w io.Writer, name, help string, value int) {
	header(w, name, "gauge", help)
	fmt.Fprintf(w, "%s %d\n", name, value)
}

// WriteGaugeFloat emits one float gauge.
func WriteGaugeFloat(w io.Writer, name, help string, value float64) {
	header(w, name, "gauge", help)
	fmt.Fprintf(w, "%s %s\n", name, formatFloat(value))
}

// WriteGaugeVec emits one labeled series of a gauge family.
func WriteGaugeVec(w io.Writer, name, help string, labels []Label, value float64) {
	header(w, name, "gauge", help)
	fmt.Fprintf(w, "%s%s %s\n", name, formatLabels(labels), formatFloat(value))
}
