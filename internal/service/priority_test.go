package service

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/pkg/dkapi"
)

// TestEnginePriority: with the single runner wedged and a batch job
// already queued, a later interactive submission still runs first —
// the runner drains the interactive queue before taking batch work.
func TestEnginePriority(t *testing.T) {
	e := NewEngine(1, 4, 16)
	defer e.Close()

	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	record := func(name string) TrackedJobFunc {
		return func(func(any)) (any, StreamFunc, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil, nil, nil
		}
	}

	blocker, err := e.Submit("block", ClassBatch, nil, func(func(any)) (any, StreamFunc, error) {
		<-release
		return nil, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The runner may not have dequeued the blocker yet; wait until it is
	// actually running so the queued order below is unambiguous.
	waitRunning(t, e, blocker.ID())

	b1, _ := e.Submit("batch-1", ClassBatch, nil, record("b1"))
	b2, _ := e.Submit("batch-2", ClassBatch, nil, record("b2"))
	i1, _ := e.Submit("interactive-1", ClassInteractive, nil, record("i1"))
	if b1 == nil || b2 == nil || i1 == nil {
		t.Fatal("submissions rejected with queue capacity to spare")
	}
	if got := e.Stats(); got.QueuedInteractive != 1 || got.QueuedBatch != 2 {
		t.Fatalf("queue split %+v, want 1 interactive / 2 batch", got)
	}
	if v := i1.View(); v.Class != ClassInteractive {
		t.Fatalf("interactive job reports class %q", v.Class)
	}
	if v := b1.View(); v.Class != ClassBatch {
		t.Fatalf("batch job reports class %q", v.Class)
	}

	close(release)
	for _, j := range []*Job{blocker, b1, b2, i1} {
		waitJob(t, j)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != "i1" {
		t.Fatalf("execution order %v, want the interactive job first", order)
	}
}

// waitRunning polls until the job leaves the queued state.
func waitRunning(t *testing.T, e *Engine, id string) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if v := e.Get(id).View(); v.Status == JobRunning {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// TestPipelineClassOverWire: a read-only pipeline is classified
// interactive and says so in its job view; one with a generate step is
// batch. The classification is what keeps profile reads from queueing
// behind ensemble sweeps.
func TestPipelineClassOverWire(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var er ExtractResponse
	postJSON(t, ts.URL+"/v1/extract?d=2", "text/plain", pawEdges, http.StatusOK, &er)

	submit := func(body string) JobView {
		var acc dkapi.JobAccepted
		postJSON(t, ts.URL+"/v1/pipelines", "application/json", body, http.StatusAccepted, &acc)
		return pollJob(t, ts.URL, acc.JobID)
	}

	readOnly := submit(fmt.Sprintf(`{"steps": [
		{"id": "p", "op": "extract", "d": 2, "source": {"hash": %q}},
		{"id": "c", "op": "census", "source": {"hash": %q}}
	]}`, er.Graph.Hash, er.Graph.Hash))
	if readOnly.Status != JobDone {
		t.Fatalf("read-only pipeline failed: %s", readOnly.Error)
	}
	if readOnly.Class != ClassInteractive {
		t.Fatalf("read-only pipeline class %q, want interactive", readOnly.Class)
	}

	generating := submit(fmt.Sprintf(`{"steps": [
		{"id": "g", "op": "generate", "d": 2, "source": {"hash": %q}, "replicas": 1, "seed": 3}
	]}`, er.Graph.Hash))
	if generating.Status != JobDone {
		t.Fatalf("generating pipeline failed: %s", generating.Error)
	}
	if generating.Class != ClassBatch {
		t.Fatalf("generating pipeline class %q, want batch", generating.Class)
	}
}
