package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// MetricsSchema identifies the -metrics dump format; `jvmsim dashboard`
// refuses dumps with a different schema rather than misrendering them.
const MetricsSchema = "jvmsim-telemetry-metrics/v1"

// HistogramBounds is the fixed bucket ladder every histogram uses:
// powers of 4 from 1 up to ~2.7e11, wide enough for nanosecond wall
// times, cycle counts and pause costs alike. Fixed (rather than
// per-metric) bounds keep dumps mergeable and the disabled path free of
// any per-metric configuration.
var HistogramBounds = func() []float64 {
	b := make([]float64, 20)
	v := 1.0
	for i := range b {
		b[i] = v
		v *= 4
	}
	return b
}()

// Histogram is one fixed-bucket histogram: counts per bucket (bucket i
// holds samples <= HistogramBounds[i]; the last bucket is the overflow)
// plus the exact count/sum/min/max.
type Histogram struct {
	Count   uint64
	Sum     float64
	Min     float64
	Max     float64
	Buckets [21]uint64 // len(HistogramBounds)+1, the last is overflow
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if h.Count == 0 || v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	i := sort.SearchFloat64s(HistogramBounds, v)
	h.Buckets[i]++
}

// Mean is the exact sample mean (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile approximates the q-quantile (q in [0,1]) from the buckets:
// the returned value is the upper bound of the bucket holding the
// q-ranked sample, clamped to the observed min/max. Exact enough for
// dashboards; never for simulated observables.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	cum := 0.0
	for i, c := range h.Buckets {
		cum += float64(c)
		if cum >= rank {
			var upper float64
			if i < len(HistogramBounds) {
				upper = HistogramBounds[i]
			} else {
				upper = h.Max
			}
			return math.Min(math.Max(upper, h.Min), h.Max)
		}
	}
	return h.Max
}

// familyMetrics is one scenario family's slice of the registry.
type familyMetrics struct {
	counters map[string]uint64
	hists    map[string]*Histogram
}

// Registry aggregates counters and histograms per scenario family. The
// zero value is ready to use; all methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*familyMetrics
}

func (g *Registry) family(name string) *familyMetrics {
	if name == "" {
		name = DefaultFamily
	}
	if g.families == nil {
		g.families = make(map[string]*familyMetrics)
	}
	f := g.families[name]
	if f == nil {
		f = &familyMetrics{counters: make(map[string]uint64), hists: make(map[string]*Histogram)}
		g.families[name] = f
	}
	return f
}

// Count adds n to the named counter under family.
func (g *Registry) Count(family, name string, n uint64) {
	g.mu.Lock()
	g.family(family).counters[name] += n
	g.mu.Unlock()
}

// Observe records one histogram sample under family.
func (g *Registry) Observe(family, name string, v float64) {
	g.mu.Lock()
	f := g.family(family)
	h := f.hists[name]
	if h == nil {
		h = new(Histogram)
		f.hists[name] = h
	}
	h.Observe(v)
	g.mu.Unlock()
}

// Counter reads one counter (0 when absent), for tests and summaries.
func (g *Registry) Counter(family, name string) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	f, ok := g.families[family]
	if !ok {
		return 0
	}
	return f.counters[name]
}

// HistogramDump is a histogram's serialized form.
type HistogramDump struct {
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
}

// Histogram reconstructs the in-memory form (for dashboard quantiles).
func (d HistogramDump) Histogram() *Histogram {
	h := &Histogram{Count: d.Count, Sum: d.Sum, Min: d.Min, Max: d.Max}
	for i, c := range d.Buckets {
		if i < len(h.Buckets) {
			h.Buckets[i] = c
		}
	}
	return h
}

// FamilyDump is one family's serialized metrics.
type FamilyDump struct {
	Counters   map[string]uint64        `json:"counters,omitempty"`
	Histograms map[string]HistogramDump `json:"histograms,omitempty"`
}

// Dump is the -metrics file format: schema stamp, producing tool, and
// one FamilyDump per scenario family.
type Dump struct {
	Schema   string                `json:"schema"`
	Tool     string                `json:"tool"`
	Families map[string]FamilyDump `json:"families"`
}

// Dump snapshots the registry.
func (g *Registry) Dump(tool string) Dump {
	d := Dump{Schema: MetricsSchema, Tool: tool, Families: make(map[string]FamilyDump)}
	g.mu.Lock()
	defer g.mu.Unlock()
	for fam, f := range g.families {
		fd := FamilyDump{}
		if len(f.counters) > 0 {
			fd.Counters = make(map[string]uint64, len(f.counters))
			for k, v := range f.counters {
				fd.Counters[k] = v
			}
		}
		if len(f.hists) > 0 {
			fd.Histograms = make(map[string]HistogramDump, len(f.hists))
			for k, h := range f.hists {
				fd.Histograms[k] = HistogramDump{
					Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
					Bounds:  HistogramBounds,
					Buckets: append([]uint64(nil), h.Buckets[:]...),
				}
			}
		}
		d.Families[fam] = fd
	}
	return d
}

// WriteMetricsJSON writes the registry dump as indented JSON.
func (r *Recorder) WriteMetricsJSON(w io.Writer, tool string) error {
	if r == nil {
		return fmt.Errorf("telemetry: no recorder to dump metrics from")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.reg.Dump(tool))
}

// ReadDump parses a -metrics file, rejecting unknown schemas.
func ReadDump(data []byte) (*Dump, error) {
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("telemetry: parsing metrics dump: %w", err)
	}
	if d.Schema != MetricsSchema {
		return nil, fmt.Errorf("telemetry: metrics dump schema %q, want %q", d.Schema, MetricsSchema)
	}
	return &d, nil
}

// FamilyNames returns the dump's families sorted, ProcessFamily last.
func (d *Dump) FamilyNames() []string {
	var names []string
	for n := range d.Families {
		if n != ProcessFamily {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if _, ok := d.Families[ProcessFamily]; ok {
		names = append(names, ProcessFamily)
	}
	return names
}
