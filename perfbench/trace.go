package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// span is one traced call at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out at exit.
// A nil *tracer records nothing, so untraced iterations pay one nil
// check per boundary.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its ID and a func that
// closes it.
func (t *tracer) begin(name string, parent int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.nextID.Add(1)
	start := time.Since(t.epoch).Nanoseconds()
	return id, func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// writeFile dumps every recorded span as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// median returns the middle value (the mean of the two middle values
// for an even count), 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that has at least 10 samples
// beyond it: the 11th-largest value. Below 21 samples that value would
// sit under the median, so the median stands in.
func tail(v []float64) float64 {
	if len(v) < 21 {
		return median(v)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)-11]
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
