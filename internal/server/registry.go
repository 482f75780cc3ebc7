package server

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// JobMemory caps the job registry: the newest JobMemory job ids stay
// answerable on /v1/jobs/{id}. Only finished jobs are forgotten, so a
// queued or running handle never answers 404.
const JobMemory = 4096

// ResultMemory caps how many finished jobs' result entries the
// registry itself holds. Older results are served from the cache
// tiers by key, so the registry never pins more than this many
// artifact sets beyond the cache budget.
const ResultMemory = 64

// DefaultTraceBudget bounds how many job traces a registry retains
// for GET /v1/debug/traces/{id} (FIFO eviction).
const DefaultTraceBudget = 512

// JobRecord is what a backend remembers about one job id.
type JobRecord struct {
	// Job is the queue handle of a job this process runs (local role),
	// held until the job finishes.
	Job *jobs.Job
	// Key is the job's content key (local role).
	Key string
	// Peer is the shard that issued the job (fleet role).
	Peer string

	// status and err are a finished local job's outcome, kept in place
	// of its handle.
	status jobStatusBody
	err    error
}

// Jobs is the bounded job registry both backends keep: job id to
// record, FIFO over JobMemory entries, plus the traces and results of
// the newest jobs. Safe for concurrent use.
type Jobs struct {
	mu      sync.Mutex
	recs    fifo[JobRecord]
	traces  fifo[*obs.Trace]
	results fifo[*cache.Entry]
}

// NewJobs builds a registry retaining traceBudget traces; <= 0 means
// DefaultTraceBudget.
func NewJobs(traceBudget int) *Jobs {
	if traceBudget <= 0 {
		traceBudget = DefaultTraceBudget
	}
	return &Jobs{
		recs: fifo[JobRecord]{m: map[string]JobRecord{}, max: JobMemory, pinned: func(rec JobRecord) bool {
			if rec.Job == nil {
				return false
			}
			_, _, done := rec.Job.Peek()
			return !done
		}},
		traces:  fifo[*obs.Trace]{m: map[string]*obs.Trace{}, max: traceBudget},
		results: fifo[*cache.Entry]{m: map[string]*cache.Entry{}, max: ResultMemory},
	}
}

// Put records id. A non-nil tr is retained as the job's trace unless
// one already is: a deduped submission shares the first submitter's.
func (t *Jobs) Put(id string, rec JobRecord, tr *obs.Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recs.put(id, rec)
	if _, seen := t.traces.m[id]; tr != nil && !seen {
		t.traces.put(id, tr)
	}
}

// settle swaps a finished job's record for rec, which holds no queue
// handle, and keeps its result among the newest ResultMemory. A job
// the registry already forgot stays forgotten.
func (t *Jobs) settle(id string, rec JobRecord, result *cache.Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.recs.m[id]; !ok {
		return
	}
	t.recs.m[id] = rec
	if result != nil {
		t.results.put(id, result)
	}
}

// Get resolves a remembered job.
func (t *Jobs) Get(id string) (JobRecord, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.recs.m[id]
	return rec, ok
}

// Trace resolves a retained trace.
func (t *Jobs) Trace(id string) (*obs.Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.traces.m[id]
	return tr, ok
}

// result resolves a retained result entry.
func (t *Jobs) result(id string) (*cache.Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.results.m[id]
	return e, ok
}

// fifo is a map bounded to max entries that forgets its oldest first,
// skipping entries pinned reports true for.
type fifo[V any] struct {
	m      map[string]V
	order  []string
	max    int
	pinned func(V) bool
}

func (f *fifo[V]) put(id string, v V) {
	if _, seen := f.m[id]; !seen {
		f.order = append(f.order, id)
	}
	f.m[id] = v
	for i := 0; len(f.m) > f.max && i < len(f.order); {
		old := f.order[i]
		if f.pinned != nil && f.pinned(f.m[old]) {
			i++
			continue
		}
		delete(f.m, old)
		if i == 0 {
			f.order = f.order[1:]
		} else {
			f.order = append(f.order[:i], f.order[i+1:]...)
		}
	}
}
