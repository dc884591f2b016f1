package pipeline

import (
	"fmt"

	"repro/internal/scenario"
	"repro/pkg/dkapi"
)

// Limits bounds a pipeline request. Zero fields select the defaults.
type Limits struct {
	// MaxSteps bounds the step count (default 32).
	MaxSteps int
	// MaxReplicas bounds one generate step's ensemble (default 128).
	MaxReplicas int
	// MaxTotalReplicas bounds the summed ensemble size across all
	// generate/randomize steps of one pipeline (default 512). This is a
	// memory bound, not just a work bound: a finished job's graphs stay
	// streamable until the job ages out of retention, so the worst case
	// per retained job is MaxTotalReplicas graphs — not steps×replicas.
	MaxTotalReplicas int
}

func (l Limits) withDefaults() Limits {
	if l.MaxSteps == 0 {
		l.MaxSteps = 32
	}
	if l.MaxReplicas == 0 {
		l.MaxReplicas = 128
	}
	if l.MaxTotalReplicas == 0 {
		l.MaxTotalReplicas = 512
	}
	return l
}

// stepMeta records what validation learned about a step, for checking
// later references against it.
type stepMeta struct {
	op       string
	replicas int // >0 for generate/randomize (ensemble size)
}

// Validate checks a pipeline request for structural errors: bounds,
// unknown ops, malformed ids, missing or over-specified graph
// references, forward/unknown step references, out-of-range replica
// indices, and invalid (depth, method) combinations. It is pure — no
// backend access — so the service can reject bad requests synchronously
// before enqueueing the job, and recovery can re-validate a journaled
// spec. Errors name the offending step.
func Validate(req dkapi.PipelineRequest, limits Limits) error {
	limits = limits.withDefaults()
	if len(req.Steps) == 0 {
		return fmt.Errorf("pipeline has no steps")
	}
	if len(req.Steps) > limits.MaxSteps {
		return fmt.Errorf("pipeline has %d steps; the limit is %d", len(req.Steps), limits.MaxSteps)
	}
	seen := make(map[string]stepMeta, len(req.Steps))
	totalReplicas := 0
	for i, st := range req.Steps {
		where := fmt.Sprintf("step %d (%q)", i, st.ID)
		if st.ID == "" {
			return fmt.Errorf("step %d: id is required", i)
		}
		if !validID(st.ID) {
			return fmt.Errorf("%s: id must match [A-Za-z0-9_-]+", where)
		}
		if _, dup := seen[st.ID]; dup {
			return fmt.Errorf("%s: duplicate id", where)
		}
		meta := stepMeta{op: st.Op}
		switch st.Op {
		case dkapi.OpExtract, dkapi.OpCensus, dkapi.OpMetrics:
			if err := requireSource(st, seen); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
		case dkapi.OpGenerate, dkapi.OpRandomize:
			if err := requireSource(st, seen); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
			gen, err := GenerateRules(st, limits.MaxReplicas)
			if err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
			totalReplicas += gen.Replicas
			if totalReplicas > limits.MaxTotalReplicas {
				return fmt.Errorf("%s: pipeline generates %d replicas in total; the limit is %d",
					where, totalReplicas, limits.MaxTotalReplicas)
			}
			meta.replicas = gen.Replicas
		case dkapi.OpCompare:
			if st.Source != nil {
				return fmt.Errorf("%s: compare takes a and b, not source", where)
			}
			if st.A == nil || st.B == nil {
				return fmt.Errorf("%s: compare requires both a and b", where)
			}
			if err := checkRef(*st.A, seen); err != nil {
				return fmt.Errorf("%s: a: %w", where, err)
			}
			if err := checkRef(*st.B, seen); err != nil {
				return fmt.Errorf("%s: b: %w", where, err)
			}
		case dkapi.OpNetsim:
			if err := requireSource(st, seen); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
			if st.D != nil {
				return fmt.Errorf("%s: netsim does not take d", where)
			}
			for j, ref := range st.Ensemble {
				if err := checkRef(ref, seen); err != nil {
					return fmt.Errorf("%s: ensemble[%d]: %w", where, j, err)
				}
			}
			if err := scenario.ValidateSpecs(st.Scenarios); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
		case "":
			return fmt.Errorf("%s: op is required", where)
		default:
			return fmt.Errorf("%s: unknown op %q (want extract|generate|randomize|compare|census|metrics|netsim)", where, st.Op)
		}
		if st.Op != dkapi.OpExtract && st.Metrics {
			return fmt.Errorf("%s: metrics is only valid on extract steps (use op metrics for a standalone summary)", where)
		}
		if st.Op != dkapi.OpNetsim && (len(st.Ensemble) > 0 || len(st.Scenarios) > 0) {
			return fmt.Errorf("%s: ensemble and scenarios are only valid on netsim steps", where)
		}
		if d := Depth(st); d < 0 || d > 3 {
			return fmt.Errorf("%s: depth d=%d outside 0..3", where, d)
		}
		seen[st.ID] = meta
	}
	return nil
}

func validID(id string) bool {
	if len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func requireSource(st dkapi.PipelineStep, seen map[string]stepMeta) error {
	if st.A != nil || st.B != nil {
		return fmt.Errorf("op %s takes source, not a/b", st.Op)
	}
	if st.Source == nil {
		return fmt.Errorf("source is required")
	}
	if err := checkRef(*st.Source, seen); err != nil {
		return fmt.Errorf("source: %w", err)
	}
	return nil
}

// checkRef validates one graph reference against the steps declared so
// far. External resolution (does the hash exist? does the dataset
// synthesize?) is the backend's job at run time — or the service's at
// submission time.
func checkRef(ref dkapi.GraphRef, seen map[string]stepMeta) error {
	set := 0
	for _, ok := range []bool{ref.Hash != "", ref.Edges != "", ref.Dataset != "", ref.Step != "", ref.File != ""} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("graph reference must set exactly one of hash, edges, dataset, step")
	}
	if ref.File != "" {
		return fmt.Errorf("file references are resolved client-side; inline the edge list or upload it first")
	}
	if ref.Step == "" {
		if ref.Replica != 0 {
			return fmt.Errorf("replica is only valid with a step reference")
		}
		return nil
	}
	meta, ok := seen[ref.Step]
	if !ok {
		return fmt.Errorf("step %q is not an earlier step (steps may only reference steps declared before them)", ref.Step)
	}
	if meta.op == dkapi.OpCompare {
		return fmt.Errorf("step %q (compare) has no graph output", ref.Step)
	}
	if ref.Replica < 0 {
		return fmt.Errorf("replica must be >= 0")
	}
	if meta.replicas > 0 {
		if ref.Replica >= meta.replicas {
			return fmt.Errorf("step %q has %d replicas; replica %d does not exist", ref.Step, meta.replicas, ref.Replica)
		}
	} else if ref.Replica != 0 {
		return fmt.Errorf("step %q has a single graph output; replica %d does not exist", ref.Step, ref.Replica)
	}
	return nil
}
