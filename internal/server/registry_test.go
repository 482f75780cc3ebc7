package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/jobs"
)

// TestJobRegistryForgetsOnlyFinishedJobs: past the registry cap the
// oldest finished job answers an enveloped 404 while the newest still
// answers, and a job still in flight survives even though it is the
// oldest entry of all.
func TestJobRegistryForgetsOnlyFinishedJobs(t *testing.T) {
	ts, s, q, _ := testServer(t, jobs.Config{Workers: 2}, 64<<20)
	l := s.backend.(*local)
	const limit = 4
	l.jobs.mu.Lock()
	l.jobs.recs.max = limit // JobMemory, shrunk so the test stays small
	l.jobs.mu.Unlock()

	release := make(chan struct{})
	defer close(release)
	blocker, _, err := q.SubmitTraced("in-flight", jobs.Interactive, nil, func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.track(blocker, blocker.Key, nil)

	var ids []string
	for i := 0; i < limit+2; i++ {
		body := fmt.Sprintf(`{"words":%d,"bpw":8,"bpc":4,"spares":4}`, 64<<i)
		code, job := postCompile(t, ts, body, "")
		id, _ := job["job_id"].(string)
		if code != http.StatusOK || id == "" {
			t.Fatalf("compile %d: %d %v", i, code, job)
		}
		ids = append(ids, id)
	}

	status := func(id string) (int, map[string]any) {
		resp, raw := rawRequest(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, "")
		var env map[string]any
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("job %s: non-envelope body %s", id, raw)
		}
		return resp.StatusCode, env
	}
	code, env := status(ids[0])
	werr, _ := env["error"].(map[string]any)
	if code != http.StatusNotFound || werr["code"] != "ERR_INVALID_PARAMS" {
		t.Fatalf("oldest job: %d %v, want enveloped 404", code, env)
	}
	if code, env := status(ids[len(ids)-1]); code != http.StatusOK || env["error"] != nil {
		t.Fatalf("newest job: %d %v", code, env)
	}
	code, env = status(blocker.ID)
	if job, _ := env["job"].(map[string]any); code != http.StatusOK || job["state"] != jobs.StateRunning.String() {
		t.Fatalf("in-flight job: %d %v", code, env)
	}
}

// TestJobRegistryHoldsFewResults: a finished job's record lets go of
// its queue handle, and the registry itself keeps only the newest
// ResultMemory results. With caching disabled, an older job's status
// still answers while its result is an enveloped 404.
func TestJobRegistryHoldsFewResults(t *testing.T) {
	ts, s, _, _ := testServer(t, jobs.Config{Workers: 2}, 0)
	l := s.backend.(*local)
	const limit = 2
	l.jobs.mu.Lock()
	l.jobs.results.max = limit // ResultMemory, shrunk so the test stays small
	l.jobs.mu.Unlock()

	var ids []string
	for i := 0; i < limit+1; i++ {
		body := fmt.Sprintf(`{"words":%d,"bpw":8,"bpc":4,"spares":4}`, 64<<i)
		code, job := postCompile(t, ts, body, "")
		id, _ := job["job_id"].(string)
		if code != http.StatusOK || id == "" {
			t.Fatalf("compile %d: %d %v", i, code, job)
		}
		ids = append(ids, id)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range ids {
		for {
			rec, _ := l.jobs.Get(id)
			if rec.Job == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still holds its queue handle after finishing", id)
			}
			time.Sleep(time.Millisecond)
		}
	}

	get := func(path string) (int, map[string]any) {
		resp, raw := rawRequest(t, http.MethodGet, ts.URL+path, "")
		var env map[string]any
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s: non-envelope body %s", path, raw)
		}
		return resp.StatusCode, env
	}
	oldest, newest := "/v1/jobs/"+ids[0], "/v1/jobs/"+ids[len(ids)-1]
	if code, env := get(newest + "/result"); code != http.StatusOK || env["data"] == nil {
		t.Fatalf("newest result: %d %v", code, env)
	}
	code, env := get(oldest + "/result")
	werr, _ := env["error"].(map[string]any)
	if code != http.StatusNotFound || werr["code"] != "ERR_INVALID_PARAMS" {
		t.Fatalf("oldest result: %d %v, want enveloped 404", code, env)
	}
	code, env = get(oldest)
	if job, _ := env["job"].(map[string]any); code != http.StatusOK || job["state"] != jobs.StateDone.String() {
		t.Fatalf("oldest status: %d %v", code, env)
	}
}
