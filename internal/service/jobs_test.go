package service

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// waitJob blocks until the job is terminal (with a test deadline).
func waitJob(t *testing.T, j *Job) JobView {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
	return j.View()
}

func TestEngineLifecycle(t *testing.T) {
	e := NewEngine(2, 8, 16)
	defer e.Close()

	j, err := e.Submit("test", func() (any, StreamFunc, error) {
		return map[string]int{"x": 1}, func(w io.Writer) error { return nil }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	view := waitJob(t, j)
	if view.Status != JobDone {
		t.Fatalf("status %s, want done (%s)", view.Status, view.Error)
	}
	if view.Started == nil || view.Finished == nil {
		t.Fatalf("done job missing timestamps: %+v", view)
	}
	if view.ResultURL != "/v1/jobs/"+j.ID()+"/result" {
		t.Fatalf("result_url = %q", view.ResultURL)
	}
	if e.Get(j.ID()) != j {
		t.Fatal("Get lost the job")
	}
}

func TestEngineFailureAndPanic(t *testing.T) {
	e := NewEngine(1, 8, 16)
	defer e.Close()

	boom := errors.New("boom")
	j1, _ := e.Submit("fail", func() (any, StreamFunc, error) { return nil, nil, boom })
	if view := waitJob(t, j1); view.Status != JobFailed || view.Error != "boom" {
		t.Fatalf("got %+v, want failed/boom", view)
	}

	j2, _ := e.Submit("panic", func() (any, StreamFunc, error) { panic("kaboom") })
	view := waitJob(t, j2)
	if view.Status != JobFailed || !strings.Contains(view.Error, "kaboom") {
		t.Fatalf("panicking job: %+v, want failed with panic message", view)
	}

	// The runner survived the panic and still executes work.
	j3, _ := e.Submit("after", func() (any, StreamFunc, error) { return 42, nil, nil })
	if view := waitJob(t, j3); view.Status != JobDone {
		t.Fatalf("runner dead after panic: %+v", view)
	}
	st := e.Stats()
	if st.Completed != 1 || st.Failed != 2 {
		t.Fatalf("stats %+v, want 1 completed / 2 failed", st)
	}
}

// TestEngineStatsCountFinishedJobs checks that a job's terminal state and
// its stats land together: a poller woken by Done reads stats that
// already count the job, whether it succeeded, failed or panicked.
func TestEngineStatsCountFinishedJobs(t *testing.T) {
	e := NewEngine(2, 8, 16)
	defer e.Close()

	boom := errors.New("boom")
	bodies := []func() (any, StreamFunc, error){
		func() (any, StreamFunc, error) { return 1, nil, nil },
		func() (any, StreamFunc, error) { return nil, nil, boom },
		func() (any, StreamFunc, error) { panic("kaboom") },
	}
	var completed, failed int64
	for i := 0; i < 300; i++ {
		j, err := e.Submit("stats", bodies[i%3])
		if err != nil {
			t.Fatal(err)
		}
		if waitJob(t, j).Status == JobDone {
			completed++
		} else {
			failed++
		}
		st := e.Stats()
		if st.Completed != completed || st.Failed != failed || st.Running != 0 {
			t.Fatalf("job %d: stats %+v once it finished, want %d completed / %d failed / 0 running", i, st, completed, failed)
		}
	}
}

func TestEngineQueueBound(t *testing.T) {
	e := NewEngine(1, 2, 16)
	defer e.Close()

	release := make(chan struct{})
	block := func() (any, StreamFunc, error) {
		<-release
		return nil, nil, nil
	}
	// With one (blocked) runner and a queue of two, at most three
	// submits can be accepted: one running plus two queued. Whether the
	// runner has dequeued the first job yet is a race, so submit until
	// rejected and check the accepted count stayed within the bound.
	var jobs []*Job
	for {
		j, err := e.Submit("block", block)
		if err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("got %v, want ErrQueueFull", err)
			}
			break
		}
		jobs = append(jobs, j)
		if len(jobs) > 3 {
			t.Fatalf("%d jobs accepted against a bound of 1 running + 2 queued", len(jobs))
		}
	}
	if len(jobs) < 2 {
		t.Fatalf("only %d jobs accepted before rejection; queue capacity unused", len(jobs))
	}
	if e.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
	close(release)
	for _, j := range jobs {
		waitJob(t, j)
	}
}

func TestEngineMaxRunningBound(t *testing.T) {
	const runners = 3
	e := NewEngine(runners, 64, 64)
	defer e.Close()

	release := make(chan struct{})
	var jobs []*Job
	for i := 0; i < 12; i++ {
		j, err := e.Submit("block", func() (any, StreamFunc, error) {
			<-release
			return nil, nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Wait until all runners report busy, then release.
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Running < runners {
		if time.Now().After(deadline) {
			t.Fatalf("runners idle: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for _, j := range jobs {
		waitJob(t, j)
	}
	st := e.Stats()
	if st.MaxRunning > runners {
		t.Fatalf("max running %d exceeded runner pool %d", st.MaxRunning, runners)
	}
	if st.MaxRunning != runners {
		t.Fatalf("max running %d, want the pool saturated at %d", st.MaxRunning, runners)
	}
}

func TestEngineRetention(t *testing.T) {
	e := NewEngine(1, 64, 3)
	defer e.Close()

	var last *Job
	for i := 0; i < 10; i++ {
		j, err := e.Submit("quick", func() (any, StreamFunc, error) { return nil, nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		last = j
	}
	views := e.List()
	if len(views) > 4 { // retain bound is approximate by one in-flight submit
		t.Fatalf("retained %d jobs, want <= 4", len(views))
	}
	if e.Get(last.ID()) == nil {
		t.Fatal("most recent job evicted")
	}
}
