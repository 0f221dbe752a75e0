package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call: wall time, the probes the world charged while it ran, its
// bulletin-board traffic, and the bytes it allocated.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Trace  int    `json:"trace"`  // shared by every span of one replay
	Name   string `json:"name"`
	// Label qualifies the span (the protocol of a sweep point).
	Label       string           `json:"label,omitempty"`
	StartNs     int64            `json:"start_ns"`
	EndNs       int64            `json:"end_ns"`
	Probes      int64            `json:"probes"`
	BoardWrites int64            `json:"board_writes,omitempty"`
	BoardReads  int64            `json:"board_reads,omitempty"`
	AllocBytes  uint64           `json:"alloc_bytes"`
	Counts      map[string]int64 `json:"counts,omitempty"`
}

func (sp *span) dur() time.Duration { return time.Duration(sp.EndNs - sp.StartNs) }

// tracer keeps spans in memory; write dumps them when the run ends. Spans
// nest by call order, so the traced code must call span from one goroutine.
type tracer struct {
	epoch  time.Time
	trace  int
	probes func() int64 // total probes charged so far; nil counts none
	stack  []*span
	spans  []*span
	alloc  []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) probeCount() int64 {
	if t.probes == nil {
		return 0
	}
	return t.probes()
}

func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

// span runs fn as one span named name, a child of the innermost open span.
func (t *tracer) span(name string, fn func()) *span {
	sp := &span{ID: len(t.spans), Parent: -1, Trace: t.trace, Name: name}
	if len(t.stack) > 0 {
		sp.Parent = t.stack[len(t.stack)-1].ID
	}
	t.spans = append(t.spans, sp)
	t.stack = append(t.stack, sp)
	p0, a0 := t.probeCount(), t.allocBytes()
	start := time.Now()
	fn()
	end := time.Now()
	sp.Probes = t.probeCount() - p0
	sp.AllocBytes = t.allocBytes() - a0
	sp.StartNs, sp.EndNs = start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
	return sp
}

// count attaches a count to sp.
func (sp *span) count(key string, v int64) {
	if sp.Counts == nil {
		sp.Counts = make(map[string]int64)
	}
	sp.Counts[key] += v
}

// containers group layer spans without being a layer themselves: a whole
// replay and one Byzantine repetition.
var containers = map[string]bool{"replay": true, "rep": true}

// layerTotal sums the spans of one layer within one trace.
type layerTotal struct {
	self          time.Duration
	probes        int64
	writes, reads int64
	alloc         uint64
	counts        map[string]int64
}

// layers aggregates the spans of trace id by name. A span's self time and
// self probes are its own minus its children's, so nested spans are never
// counted twice.
func (t *tracer) layers(id int) map[string]*layerTotal {
	childDur := make(map[int]time.Duration)
	childProbes := make(map[int]int64)
	for _, sp := range t.spans {
		if sp.Trace == id && sp.Parent >= 0 {
			childDur[sp.Parent] += sp.dur()
			childProbes[sp.Parent] += sp.Probes
		}
	}
	out := make(map[string]*layerTotal)
	for _, sp := range t.spans {
		if sp.Trace != id {
			continue
		}
		lt := out[sp.Name]
		if lt == nil {
			lt = &layerTotal{counts: make(map[string]int64)}
			out[sp.Name] = lt
		}
		lt.self += sp.dur() - childDur[sp.ID]
		lt.probes += sp.Probes - childProbes[sp.ID]
		lt.writes += sp.BoardWrites
		lt.reads += sp.BoardReads
		lt.alloc += sp.AllocBytes
		for k, v := range sp.Counts {
			lt.counts[k] += v
		}
	}
	return out
}

// coverage is the share of the trace's replay span spent inside layer spans
// rather than in the replay's own glue code.
func (t *tracer) coverage(id int, lt map[string]*layerTotal) float64 {
	var root time.Duration
	for _, sp := range t.spans {
		if sp.Trace == id && sp.Name == "replay" {
			root += sp.dur()
		}
	}
	if root <= 0 {
		return 0
	}
	var glue time.Duration
	for name := range containers {
		if l := lt[name]; l != nil {
			glue += l.self
		}
	}
	return 1 - glue.Seconds()/root.Seconds()
}

// layerProbes sums the self probes of every layer span in a trace: all the
// probes the replay charged, when no container span probes on its own.
func layerProbes(lt map[string]*layerTotal) (layer, glue int64) {
	for name, l := range lt {
		if containers[name] {
			glue += l.probes
		} else {
			layer += l.probes
		}
	}
	return layer, glue
}

// write stores every span as JSON at path, creating its directory.
func (t *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		Spans    []*span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
