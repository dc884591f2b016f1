package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
	"repro/pkg/dkapi"
)

// ErrQueueFull is returned by Engine.Submit when the bounded job queue
// has no room; the HTTP layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("service: job queue full")

// JobStatus is the lifecycle state of an asynchronous job (wire
// vocabulary, pkg/dkapi).
type JobStatus = dkapi.JobStatus

// Job lifecycle states. A job moves queued → running → done | failed;
// there are no other transitions.
const (
	JobQueued  = dkapi.JobQueued
	JobRunning = dkapi.JobRunning
	JobDone    = dkapi.JobDone
	JobFailed  = dkapi.JobFailed
)

// JobClass is the scheduling priority of a job (wire vocabulary,
// pkg/dkapi): interactive work overtakes queued batch work.
type JobClass = dkapi.JobClass

// Job priority classes. A class other than interactive runs as batch.
const (
	ClassInteractive = dkapi.ClassInteractive
	ClassBatch       = dkapi.ClassBatch
)

// StreamFunc writes a job's bulk result (replica edge lists) to w. It is
// invoked once per GET /v1/jobs/{id}/result request, after the job is
// done, possibly concurrently with other streams of the same job — it
// must not mutate job state.
type StreamFunc func(w io.Writer) error

// TrackedJobFunc is the body of a job. It returns a JSON-marshalable
// result summary and an optional bulk-result streamer, and may report
// live progress: setProgress publishes a JSON-marshalable snapshot
// (e.g. per-step pipeline status) that GET /v1/jobs/{id} serves while
// the job runs. A body may call it any number of times or never; the
// latest value wins.
type TrackedJobFunc func(setProgress func(any)) (result any, stream StreamFunc, err error)

// Job is one asynchronous unit of work tracked by the Engine. All fields
// are private; use View for a snapshot.
type Job struct {
	id    string
	kind  string
	class JobClass
	run   TrackedJobFunc
	eng   *Engine         // owner, for journaling terminal transitions; may be nil
	spec  json.RawMessage // serialized request, journaled for recovery

	mu        sync.Mutex
	status    JobStatus
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       error
	progress  any
	result    any
	stream    StreamFunc
	doneCh    chan struct{}
}

// setProgress publishes a progress snapshot for polling clients.
func (j *Job) setProgress(p any) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

// ID returns the job's identifier ("j" + zero-padded sequence number).
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Stream returns the bulk-result streamer, or nil if the job is not done
// or produced no streamable result.
func (j *Job) Stream() StreamFunc {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != JobDone {
		return nil
	}
	return j.stream
}

// JobView is the JSON snapshot of a job, served by GET /v1/jobs/{id}
// (wire vocabulary, pkg/dkapi).
type JobView = dkapi.JobView

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		Kind:      j.kind,
		Class:     j.class,
		Status:    j.status,
		Submitted: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.progress != nil {
		v.Progress = j.progress
	}
	if j.status == JobDone {
		v.Result = j.result
		if j.stream != nil {
			v.ResultURL = "/v1/jobs/" + j.id + "/result"
		}
	}
	return v
}

// EngineStats counts job-engine traffic. MaxRunning is the high-water
// mark of concurrently executing jobs — with R runners it can never
// exceed R, which is how tests verify the engine respects the worker
// budget it was built with. Recovered counts jobs re-queued from the
// journal of a previous process at startup. The type itself is wire
// vocabulary (pkg/dkapi).
type EngineStats = dkapi.EngineStats

// Engine executes jobs asynchronously on a fixed pool of runner
// goroutines with two bounded queues — interactive and batch, each of
// the configured capacity. A runner that frees up always drains the
// interactive queue first, so profile reads overtake queued ensemble
// sweeps; within a class, order is FIFO. The runner count is the
// engine's share of the process worker budget: generation work inside a
// job fans out further through internal/parallel, whose process-global
// helper bound keeps (runners × inner parallelism) from oversubscribing
// the machine — inner loops degrade to inline execution once the global
// fleet is saturated.
type Engine struct {
	runners int
	queueHi chan *Job // interactive
	queueLo chan *Job // batch
	stop    chan struct{}
	wg      sync.WaitGroup
	journal *store.Journal // immutable after construction; nil = no journal

	mu      sync.Mutex
	closed  bool
	jobs    map[string]*Job
	order   []string // submission order, for retention eviction
	retain  int
	seq     int64
	stats   EngineStats
	running int
}

// NewEngine starts an engine with the given runner pool size (minimum 1),
// queue capacity (minimum 1), and retained-job bound (minimum 1;
// terminal jobs beyond the bound are evicted oldest-first).
func NewEngine(runners, queueCap, retain int) *Engine {
	return NewJournaledEngine(runners, queueCap, retain, nil, 0)
}

// NewJournaledEngine is NewEngine with a restart journal: every job state
// transition is appended to it, best-effort (journal write failures never
// fail the job). seqFloor advances the id sequence past ids a previous
// process already journaled, so job ids stay unique across restarts.
// Pass a nil journal for a memory-only engine.
func NewJournaledEngine(runners, queueCap, retain int, journal *store.Journal, seqFloor int64) *Engine {
	if runners < 1 {
		runners = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	if retain < 1 {
		retain = 1
	}
	e := &Engine{
		runners: runners,
		queueHi: make(chan *Job, queueCap),
		queueLo: make(chan *Job, queueCap),
		stop:    make(chan struct{}),
		jobs:    make(map[string]*Job),
		retain:  retain,
		journal: journal,
		seq:     seqFloor,
	}
	e.wg.Add(runners)
	for i := 0; i < runners; i++ {
		go e.runLoop()
	}
	return e
}

// note appends a job-state record to the journal, best-effort. It takes
// no engine lock (the journal field is immutable and has its own mutex),
// so it is safe to call from any state-transition site.
func (e *Engine) note(rec store.JobRecord) {
	if e == nil || e.journal == nil {
		return
	}
	_ = e.journal.Record(rec)
}

// jobSeq parses the sequence number out of a "j%06d" job id; malformed
// ids yield 0. Used to advance the id sequence past a replayed journal.
func jobSeq(id string) int64 {
	num, ok := strings.CutPrefix(id, "j")
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// MaxJournaledSeq returns the highest job sequence number appearing in
// the replayed states, for use as a NewJournaledEngine seqFloor.
func MaxJournaledSeq(states []store.JobState) int64 {
	var max int64
	for _, st := range states {
		if n := jobSeq(st.ID); n > max {
			max = n
		}
	}
	return max
}

// countNonTerminal counts replayed jobs that recovery will re-queue,
// used to size the engine queue so recovery never overflows it.
func countNonTerminal(states []store.JobState) int {
	n := 0
	for _, st := range states {
		if !st.Terminal() {
			n++
		}
	}
	return n
}

// Close stops the runner pool after in-flight jobs finish. Queued jobs
// that have not started are marked failed; later Submits are rejected.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.stop)
	e.wg.Wait()
	// Fail whatever is still queued so pollers are not left hanging.
	// Submit enqueues under the mutex, so every send either happened
	// before the closed flag was set (and is drained here) or observed
	// the flag and was rejected — no job can be enqueued after this.
	for _, q := range []chan *Job{e.queueHi, e.queueLo} {
		for {
			select {
			case j := <-q:
				j.finish(nil, nil, errors.New("service: engine shut down"))
				continue
			default:
			}
			break
		}
	}
}

// Submit enqueues a job of the given priority class: interactive jobs
// overtake queued batch jobs. spec, the serialized request, is written
// to the journal with the queued record, which makes the job
// recoverable: after a crash, the spec is what a fresh process
// re-queues from (nil spec = not recoverable). Submit never blocks: if
// the queue is full the job is rejected with ErrQueueFull; after Close
// it is rejected outright.
func (e *Engine) Submit(kind string, class JobClass, spec json.RawMessage, run TrackedJobFunc) (*Job, error) {
	return e.submit("", kind, class, spec, run)
}

// Resubmit re-queues a job recovered from a previous process's journal
// under its original id and class, so clients polling that id across
// the restart find their job again. It fails if the id is already
// tracked.
func (e *Engine) Resubmit(id, kind string, class JobClass, spec json.RawMessage, run TrackedJobFunc) (*Job, error) {
	return e.submit(id, kind, class, spec, run)
}

// RegisterFailed tracks a job in a terminal failed state without ever
// running it — the close-out for journal jobs whose spec no longer
// resolves. Registering (rather than only journaling) keeps the poll
// contract: GET /v1/jobs/{id} answers "failed" with the reason instead
// of 404. Already-tracked ids are left alone.
func (e *Engine) RegisterFailed(id, kind string, spec json.RawMessage, msg string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.jobs[id] != nil {
		return
	}
	now := time.Now().UTC()
	j := &Job{
		id:        id,
		kind:      kind,
		eng:       e,
		spec:      spec,
		status:    JobFailed,
		submitted: now,
		finished:  now,
		err:       errors.New(msg),
		doneCh:    make(chan struct{}),
	}
	close(j.doneCh)
	e.jobs[id] = j
	e.order = append(e.order, id)
	e.stats.Failed++
	e.evictLocked()
}

// submit enqueues a job under a fresh id, or under id when recovering.
func (e *Engine) submit(id, kind string, class JobClass, spec json.RawMessage, run TrackedJobFunc) (*Job, error) {
	recovered := id != ""
	if class != ClassInteractive {
		class = ClassBatch
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		e.stats.Rejected++
		return nil, errors.New("service: engine shut down")
	}
	if id == "" {
		e.seq++
		id = fmt.Sprintf("j%06d", e.seq)
	} else if e.jobs[id] != nil {
		return nil, fmt.Errorf("service: job %s already tracked", id)
	}
	j := &Job{
		id:        id,
		kind:      kind,
		class:     class,
		run:       run,
		eng:       e,
		spec:      spec,
		status:    JobQueued,
		submitted: time.Now().UTC(),
		doneCh:    make(chan struct{}),
	}
	queue := e.queueLo
	if class == ClassInteractive {
		queue = e.queueHi
	}
	// Journal the queued record (which carries the recoverable spec)
	// BEFORE the job becomes visible to runners: a runner can dequeue
	// and journal "running" the instant the send completes, and a crash
	// between the two appends would leave a spec-less running record
	// that recovery could only close out as failed. A queue-full
	// rejection after the fact is closed with a failed record, so the
	// journal never carries a phantom queued job.
	e.note(store.JobRecord{ID: j.id, Status: store.JobQueued, Kind: kind, Spec: spec})
	select {
	case queue <- j:
	default:
		e.stats.Rejected++
		e.note(store.JobRecord{ID: j.id, Status: store.JobFailed, Error: "rejected: queue full"})
		return nil, ErrQueueFull
	}
	e.jobs[j.id] = j
	e.order = append(e.order, j.id)
	if recovered {
		e.stats.Recovered++
	}
	e.evictLocked()
	return j, nil
}

// evictLocked drops the oldest terminal jobs beyond the retention bound.
// Queued and running jobs are never evicted.
func (e *Engine) evictLocked() {
	excess := len(e.jobs) - e.retain
	if excess <= 0 {
		return
	}
	kept := e.order[:0]
	for _, id := range e.order {
		j := e.jobs[id]
		if j == nil {
			continue
		}
		j.mu.Lock()
		terminal := j.status == JobDone || j.status == JobFailed
		j.mu.Unlock()
		if excess > 0 && terminal {
			delete(e.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	e.order = kept
}

// Get returns a tracked job by id, or nil.
func (e *Engine) Get(id string) *Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.jobs[id]
}

// List snapshots all tracked jobs in submission order.
func (e *Engine) List() []JobView {
	e.mu.Lock()
	ids := append([]string(nil), e.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j := e.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	e.mu.Unlock()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.View()
	}
	return out
}

// Accepting reports whether the engine is open for new submissions —
// false after Close (or during shutdown), which is what /v1/readyz
// checks before declaring the server ready.
func (e *Engine) Accepting() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return !e.closed
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.Runners = e.runners
	s.QueuedInteractive = len(e.queueHi)
	s.QueuedBatch = len(e.queueLo)
	s.Queued = s.QueuedInteractive + s.QueuedBatch
	s.Running = e.running
	return s
}

// runLoop is one runner goroutine: it drains the queues until Close,
// always preferring interactive work when both classes have backlog.
func (e *Engine) runLoop() {
	defer e.wg.Done()
	for {
		// Check stop first on its own: a multi-case select picks randomly
		// when several are ready, which would let a runner start a queued
		// job after Close began instead of leaving it for Close's
		// drain-and-fail pass.
		select {
		case <-e.stop:
			return
		default:
		}
		// The priority rule lives here: a freed runner drains the
		// interactive queue before looking at batch work, so class-hi
		// jobs overtake any batch backlog. Only when the interactive
		// queue is empty does the runner block on both classes at once
		// (a simultaneous arrival picks randomly — at most one batch
		// job ahead of an interactive one, never a queue's worth).
		select {
		case j := <-e.queueHi:
			e.execute(j)
			continue
		default:
		}
		select {
		case <-e.stop:
			return
		case j := <-e.queueHi:
			e.execute(j)
		case j := <-e.queueLo:
			e.execute(j)
		}
	}
}

// execute runs one job, tracking the concurrent-running high-water mark.
func (e *Engine) execute(j *Job) {
	j.mu.Lock()
	j.status = JobRunning
	j.started = time.Now().UTC()
	j.mu.Unlock()
	e.note(store.JobRecord{ID: j.id, Status: store.JobRunning})

	e.mu.Lock()
	e.running++
	if e.running > e.stats.MaxRunning {
		e.stats.MaxRunning = e.running
	}
	e.mu.Unlock()

	result, stream, err := runSafely(j.run, j.setProgress)

	// Count the job before finish wakes its pollers, so a poller that
	// sees it finished reads stats that include it.
	e.mu.Lock()
	e.running--
	if err != nil {
		e.stats.Failed++
	} else {
		e.stats.Completed++
	}
	e.mu.Unlock()
	j.finish(result, stream, err)
}

// runSafely converts a panicking job body into a failed job rather than
// letting it take down the runner goroutine (and with it the server).
func runSafely(run TrackedJobFunc, setProgress func(any)) (result any, stream StreamFunc, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, stream, err = nil, nil, fmt.Errorf("service: job panicked: %v", r)
		}
	}()
	return run(setProgress)
}

// finish moves the job to its terminal state, journals it, and wakes
// pollers.
func (j *Job) finish(result any, stream StreamFunc, err error) {
	j.mu.Lock()
	j.finished = time.Now().UTC()
	if err != nil {
		j.status = JobFailed
		j.err = err
	} else {
		j.status = JobDone
		j.result = result
		j.stream = stream
	}
	j.mu.Unlock()
	if err != nil {
		j.eng.note(store.JobRecord{ID: j.id, Status: store.JobFailed, Error: err.Error()})
	} else {
		j.eng.note(store.JobRecord{ID: j.id, Status: store.JobDone})
	}
	close(j.doneCh)
}
