package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// newHTTP returns a keep-alive client sized for the load generator's clients.
func newHTTP(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        4 * conns,
			MaxIdleConnsPerHost: 4 * conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

func do(hc *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// awaitSweep follows GET /v1/sweeps/{id}/events until the terminal
// summary frame and returns it.
func awaitSweep(hc *http.Client, base, id string) (sweepSummary, error) {
	resp, err := hc.Get(base + "/v1/sweeps/" + id + "/events")
	if err != nil {
		return sweepSummary{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sweepSummary{}, fmt.Errorf("sweep events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Summary *sweepSummary `json:"summary"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return sweepSummary{}, fmt.Errorf("sweep events: %w", err)
		}
		if ev.Summary != nil && ev.Summary.Terminal {
			_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
			return *ev.Summary, nil
		}
	}
	if err := sc.Err(); err != nil {
		return sweepSummary{}, err
	}
	return sweepSummary{}, fmt.Errorf("sweep %s: event stream ended before the terminal summary", id)
}

type sweepSummary struct {
	State    string `json:"state"`
	Total    int    `json:"total"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Terminal bool   `json:"terminal"`
}

// metricSnap is one Prometheus text scrape: series (name plus label
// set, as printed) -> value.
type metricSnap map[string]float64

func scrape(hc *http.Client, base string) (metricSnap, error) {
	status, body, err := do(hc, http.MethodGet, base+"/metrics?format=prometheus", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", base, status)
	}
	m := metricSnap{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %q: %w", base, line, err)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// delta sums after-before of one series over parallel scrapes.
func delta(before, after []metricSnap, series string) float64 {
	var d float64
	for i := range after {
		d += after[i][series] - before[i][series]
	}
	return d
}

func scrapeAll(hc *http.Client, ps []*proc) ([]metricSnap, error) {
	out := make([]metricSnap, len(ps))
	for i, p := range ps {
		m, err := scrape(hc, p.url)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// usage sums CPU time and peak RSS over the server processes.
func usage(ps []*proc) (cpu time.Duration, rssKiB int64, err error) {
	for _, p := range ps {
		c, r, err := procUsage(p.pid())
		if err != nil {
			return 0, 0, err
		}
		cpu += c
		rssKiB += r
	}
	return cpu, rssKiB, nil
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
