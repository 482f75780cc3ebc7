package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"regexp"

	"repro/perfbench/gen"
)

// Artifacts every compile must return.
var wantArtifacts = []string{"datasheet.json", "datasheet.txt", "layout.gds", "layout.svg", "trpla_and.plane", "trpla_or.plane"}

var keyRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

// compileOut is what the load generator keeps of one verified compile reply.
type compileOut struct {
	Key       string
	JobID     string
	Tier      string
	ElapsedMs float64
	ReportSHA [32]byte
	Bytes     int // artifact bytes
}

type jobReply struct {
	Key       string          `json:"key"`
	JobID     string          `json:"job_id"`
	State     string          `json:"state"`
	Cached    bool            `json:"cached"`
	CacheTier string          `json:"cache_tier"`
	ElapsedMs *float64        `json:"elapsed_ms"`
	Artifacts map[string]int  `json:"artifacts"`
	Report    json.RawMessage `json:"report"`
}

type reportGeometry struct {
	Organisation struct {
		Words     int `json:"words"`
		BPW       int `json:"bits_per_word"`
		BPC       int `json:"bits_per_column"`
		SpareRows int `json:"spare_rows"`
	} `json:"organisation"`
	Process struct {
		Name string `json:"name"`
	} `json:"process"`
}

// envelope decodes a /v1 reply and requires the error member to be
// present and null.
func envelope(status, want int, body []byte, payload string, v any) error {
	if status != want {
		return fmt.Errorf("status %d, want %d: %.200s", status, want, body)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("envelope: %w", err)
	}
	if e, ok := env["error"]; !ok || string(e) != "null" {
		return fmt.Errorf("envelope error member is %q, want null", e)
	}
	p, ok := env[payload]
	if !ok {
		return fmt.Errorf("envelope has no %q member", payload)
	}
	if err := json.Unmarshal(p, v); err != nil {
		return fmt.Errorf("envelope %s: %w", payload, err)
	}
	return nil
}

// checkCompile verifies a POST /v1/compile reply for design d: a 200
// envelope in state done with the full artifact set and a report that
// echoes the requested geometry and process.
func checkCompile(status int, body []byte, d gen.Design) (compileOut, error) {
	var j jobReply
	if err := envelope(status, http.StatusOK, body, "job", &j); err != nil {
		return compileOut{}, err
	}
	if j.State != "done" {
		return compileOut{}, fmt.Errorf("state %q, want done", j.State)
	}
	if !keyRE.MatchString(j.Key) {
		return compileOut{}, fmt.Errorf("malformed key %q", j.Key)
	}
	if j.ElapsedMs == nil {
		return compileOut{}, errors.New("no elapsed_ms")
	}
	out := compileOut{Key: j.Key, JobID: j.JobID, Tier: j.CacheTier, ElapsedMs: *j.ElapsedMs}
	for _, name := range wantArtifacts {
		n := j.Artifacts[name]
		if n <= 0 {
			return compileOut{}, fmt.Errorf("artifact %s missing or empty", name)
		}
		out.Bytes += n
	}
	var g reportGeometry
	if err := json.Unmarshal(j.Report, &g); err != nil {
		return compileOut{}, fmt.Errorf("report: %w", err)
	}
	o := g.Organisation
	if o.Words != d.Words || o.BPW != d.BPW || o.BPC != d.BPC || o.SpareRows != d.Spares {
		return compileOut{}, fmt.Errorf("report geometry %dx%d bpc %d spares %d, requested %dx%d bpc %d spares %d",
			o.Words, o.BPW, o.BPC, o.SpareRows, d.Words, d.BPW, d.BPC, d.Spares)
	}
	wantProc := d.Process
	if d.Corner != "typ" {
		wantProc += "." + d.Corner
	}
	if g.Process.Name != wantProc {
		return compileOut{}, fmt.Errorf("report process %q, want %q", g.Process.Name, wantProc)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, j.Report); err != nil {
		return compileOut{}, fmt.Errorf("report: %w", err)
	}
	out.ReportSHA = sha256.Sum256(compact.Bytes())
	return out, nil
}

// checkHit verifies a repeat compile: a verified compile reply served
// from the memory or disk tier whose report is byte-identical to the
// one its key returned when the working set was populated.
func checkHit(status int, body []byte, d gen.Design, want compileOut) (compileOut, error) {
	out, err := checkCompile(status, body, d)
	if err != nil {
		return out, err
	}
	if out.Tier != "hit" && out.Tier != "hit-disk" {
		return out, fmt.Errorf("cache_tier %q, want hit or hit-disk", out.Tier)
	}
	if out.Key != want.Key {
		return out, fmt.Errorf("key %s, populated as %s", out.Key, want.Key)
	}
	if out.ReportSHA != want.ReportSHA {
		return out, fmt.Errorf("report of %s differs from the populated one", out.Key)
	}
	return out, nil
}

// checkSweepCreate verifies the POST /v1/sweeps reply and returns the
// sweep id.
func checkSweepCreate(status int, body []byte, s gen.Sweep) (string, error) {
	var sw struct {
		ID    string `json:"id"`
		Total int    `json:"total"`
	}
	if err := envelope(status, http.StatusAccepted, body, "sweep", &sw); err != nil {
		return "", err
	}
	if sw.ID == "" || sw.Total != s.Points() {
		return "", fmt.Errorf("sweep %q has %d points, want %d", sw.ID, sw.Total, s.Points())
	}
	return sw.ID, nil
}

func checkSummary(sum sweepSummary, s gen.Sweep) error {
	if sum.State != "done" || sum.Failed != 0 || sum.Done != s.Points() || sum.Total != s.Points() {
		return fmt.Errorf("sweep summary %+v, want %d points done", sum, s.Points())
	}
	return nil
}

type mcRow struct {
	Samples  int      `json:"samples"`
	Sigma    float64  `json:"sigma"`
	Seed     int64    `json:"seed"`
	FailProb *float64 `json:"fail_prob"`
}

type sweepRow struct {
	Index   int    `json:"index"`
	Words   int    `json:"words"`
	BPW     int    `json:"bpw"`
	BPC     int    `json:"bpc"`
	Spares  int    `json:"spares"`
	Process string `json:"process"`
	MC      *mcRow `json:"mc"`
}

// checkSweepResults verifies GET /v1/sweeps/{id}/results: every point
// present, in the cross-product order (process, words, mc_sigma), with
// an MC block that echoes the requested samples, sigma and seed and a
// finite fail_prob in [0,1]. It returns the rows without their
// run-dependent cached flag, for comparing sweeps and for the digest.
func checkSweepResults(status int, body []byte, s gen.Sweep) ([]byte, error) {
	var res struct {
		Complete bool              `json:"complete"`
		Total    int               `json:"total"`
		Failed   int               `json:"failed"`
		Rows     []json.RawMessage `json:"rows"`
	}
	if err := envelope(status, http.StatusOK, body, "data", &res); err != nil {
		return nil, err
	}
	n := s.Points()
	if !res.Complete || res.Failed != 0 || res.Total != n || len(res.Rows) != n {
		return nil, fmt.Errorf("results complete=%v failed=%d total=%d rows=%d, want %d points",
			res.Complete, res.Failed, res.Total, len(res.Rows), n)
	}
	nw, ns := len(s.Axes.Words), len(s.Axes.MCSigma)
	stripped := make([]map[string]any, n)
	for i, raw := range res.Rows {
		var r sweepRow
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		wantProc := s.Axes.Process[i/(nw*ns)]
		wantWords := s.Axes.Words[(i/ns)%nw]
		wantSigma := s.Axes.MCSigma[i%ns]
		b := s.Base
		if r.Index != i || r.Words != wantWords || r.BPW != b.BPW || r.BPC != b.BPC || r.Spares != b.Spares || r.Process != wantProc {
			return nil, fmt.Errorf("row %d is %+v, want %s %dx%d bpc %d spares %d", i, r, wantProc, wantWords, b.BPW, b.BPC, b.Spares)
		}
		if r.MC == nil {
			return nil, fmt.Errorf("row %d has no mc block", i)
		}
		if r.MC.Samples != b.MCSamples || r.MC.Sigma != wantSigma || r.MC.Seed != b.MCSeed {
			return nil, fmt.Errorf("row %d mc samples=%d sigma=%g seed=%d, want %d %g %d",
				i, r.MC.Samples, r.MC.Sigma, r.MC.Seed, b.MCSamples, wantSigma, b.MCSeed)
		}
		if p := r.MC.FailProb; p == nil || math.IsNaN(*p) || *p < 0 || *p > 1 {
			return nil, fmt.Errorf("row %d fail_prob %v outside [0,1]", i, p)
		}
		if err := json.Unmarshal(raw, &stripped[i]); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		delete(stripped[i], "cached")
	}
	return json.Marshal(stripped)
}
