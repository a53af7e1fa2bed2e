package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"gsfl/obs"
)

// The transport and sweep layers already emit wall-clock obs spans;
// these readers fold a traced unit's spans into per-layer totals. Wire
// phases come from the spans rather than LoadGenReport.Phases: the
// report's quantiles are read off fixed histogram buckets, and phases
// shorter than the first bucket (100 µs) come back as pure
// interpolation inside it.

type span struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"` // µs since the tracer epoch
	Dur  *float64 `json:"dur"`
	Tid  int      `json:"tid"`
}

func readSpans(t *obs.Tracer) ([]span, error) {
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var f struct {
		TraceEvents []span `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}
	out := f.TraceEvents[:0]
	for _, s := range f.TraceEvents {
		if s.Ph == "X" && s.Dur != nil {
			out = append(out, s)
		}
	}
	return out, nil
}

// wirePhaseMetric maps the AP's phase span names to metric names.
var wirePhaseMetric = map[string]string{
	"write-train":    "wire.write_train_s",
	"read-smashed":   "wire.read_smashed_s",
	"server-compute": "wire.server_compute_s",
	"write-gradient": "wire.write_gradient_s",
	"read-return":    "wire.read_return_s",
}

// wireSpans totals the AP's phase spans and the turn spans' self time
// (turn duration minus the phases inside it: frame decode, tensor
// bookkeeping, scheduling).
func wireSpans(t *obs.Tracer) (map[string]float64, error) {
	spans, err := readSpans(t)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	var turns, phases float64
	for _, s := range spans {
		d := *s.Dur / 1e6
		switch s.Cat {
		case "turn":
			turns += d
		case "phase":
			phases += d
			if name, ok := wirePhaseMetric[s.Name]; ok {
				m[name] += d
			}
		}
	}
	m["wire.turn_self_s"] = turns - phases
	return m, nil
}

// sweepSpans totals the scheduler's job spans between runStart and
// runEnd (seconds on the tracer's clock). The tail is the compaction
// after the last job ends.
func sweepSpans(t *obs.Tracer, runStart, runEnd float64, jobs int) (map[string]float64, error) {
	spans, err := readSpans(t)
	if err != nil {
		return nil, err
	}
	var job, lastEnd float64
	n := 0
	for _, s := range spans {
		if s.Cat != "job" {
			continue
		}
		d := *s.Dur / 1e6
		job += d
		n++
		if end := s.Ts/1e6 + d; end > lastEnd {
			lastEnd = end
		}
	}
	makespan := runEnd - runStart
	return map[string]float64{
		"sweep.job_s":      job,
		"sweep.idle_share": 1 - job/(makespan*float64(jobs)),
		"sweep.tail_s":     runEnd - lastEnd,
		"sweep.jobs":       float64(n),
	}, nil
}
