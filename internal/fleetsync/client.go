package fleetsync

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/nuwins/cellwheels/internal/fleet"
	"github.com/nuwins/cellwheels/internal/obs"
)

// Client-side defaults. A whole push is bounded by MaxAttempts requests,
// each with its own timeout, with exponential backoff plus jitter
// between attempts — a worker never hangs forever on a dead collector
// and never hammers a briefly hiccuping one.
const (
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxAttempts    = 8
	DefaultBackoffBase    = 100 * time.Millisecond
	DefaultBackoffMax     = 5 * time.Second
)

// PusherConfig parameterizes a worker's sync client.
type PusherConfig struct {
	// BaseURL locates the collector, e.g. "http://10.0.0.7:8080".
	BaseURL string
	// Scenario is the scenario fingerprint the collector was started
	// with; mismatched pushes are rejected.
	Scenario string
	// Transport, when non-nil, replaces the default HTTP transport — the
	// fault-injection seam the flaky-network tests use.
	Transport http.RoundTripper
	// MaxAttempts bounds the requests of one push or status query
	// (0 = default).
	MaxAttempts int
	// Obs counts pushes and retries. Nil is a no-op.
	Obs *obs.Recorder
	// Sleep replaces time.Sleep between retries in tests. Nil means
	// time.Sleep.
	Sleep func(time.Duration)
}

// Pusher pushes run artifacts to a collector idempotently: it can be
// killed at any byte of any request and a fresh PushRun of the same run
// converges without duplicating or corrupting anything on the collector.
type Pusher struct {
	cfg    PusherConfig
	base   string
	client *http.Client
	sleep  func(time.Duration)
}

// NewPusher builds a sync client.
func NewPusher(cfg PusherConfig) (*Pusher, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("fleetsync: pusher needs a collector URL")
	}
	if cfg.Scenario == "" {
		return nil, fmt.Errorf("fleetsync: pusher needs a scenario fingerprint")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	p := &Pusher{
		cfg:    cfg,
		base:   strings.TrimSuffix(cfg.BaseURL, "/") + BasePath,
		client: &http.Client{Transport: cfg.Transport, Timeout: DefaultRequestTimeout},
		sleep:  cfg.Sleep,
	}
	if p.sleep == nil {
		p.sleep = time.Sleep
	}
	return p, nil
}

// PushRun syncs one finished run to the collector: one PUT of the
// canonical artifact under its digest, retried until the collector
// accepts it or rejects it for good. Safe to call for a run the
// collector already has — the push lands as a duplicate no-op.
func (p *Pusher) PushRun(rec fleet.RunRecord, m fleet.Metrics) error {
	data, err := EncodeArtifact(Artifact{Record: rec, Metrics: m})
	if err != nil {
		return err
	}
	digest := Digest(data)
	url := p.base + "/runs/" + digest
	err = p.retry(digest, func() (bool, error) {
		req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(data))
		if err != nil {
			return false, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(HeaderScenario, p.cfg.Scenario)
		resp, err := p.client.Do(req)
		if err != nil {
			return true, err
		}
		defer drain(resp)
		switch resp.StatusCode {
		case http.StatusOK:
			return false, nil
		case http.StatusConflict, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			// Scenario mismatch, oversized or invalid run: retrying the
			// same bytes cannot succeed.
			return false, wireError("push", resp.StatusCode, readErrBody(resp))
		default:
			return true, wireError("push", resp.StatusCode, readErrBody(resp))
		}
	})
	if err != nil {
		return fmt.Errorf("fleetsync: push run %d: %w", rec.Index, err)
	}
	p.cfg.Obs.Counter("fleetsync/pushes").Add(1)
	return nil
}

// Status pulls the collector's sync manifest — what it holds already —
// so a restarted worker can skip runs that made it through before the
// crash.
func (p *Pusher) Status() (SyncManifest, error) {
	var man SyncManifest
	err := p.retry("status", func() (bool, error) {
		resp, err := p.client.Get(p.base + "/status")
		if err != nil {
			return true, err
		}
		defer drain(resp)
		if resp.StatusCode != http.StatusOK {
			return true, wireError("status", resp.StatusCode, readErrBody(resp))
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&man); err != nil {
			return true, err
		}
		if man.Scenario != p.cfg.Scenario {
			return false, fmt.Errorf("collector is reducing scenario %s, not ours", man.Scenario)
		}
		return false, nil
	})
	if err != nil {
		return man, fmt.Errorf("fleetsync: status: %w", err)
	}
	return man, nil
}

// retry makes up to MaxAttempts attempts, backing off between them,
// until one succeeds or fails with again false (a failure no retry can
// fix).
func (p *Pusher) retry(key string, attempt func() (again bool, err error)) error {
	var err error
	for n := 0; n < p.cfg.MaxAttempts; n++ {
		if n > 0 {
			p.cfg.Obs.Counter("fleetsync/retries").Add(1)
			p.sleep(backoff(key, n))
		}
		var again bool
		if again, err = attempt(); err == nil || !again {
			return err
		}
	}
	return fmt.Errorf("failed after %d attempts: %w", p.cfg.MaxAttempts, err)
}

// backoff computes the wait before the given retry attempt: exponential
// in the attempt number, capped, with ±25% deterministic jitter keyed by
// (key, attempt) — workers retrying the same outage spread out without
// any shared randomness, and a given retry schedule is reproducible.
func backoff(key string, attempt int) time.Duration {
	d := DefaultBackoffBase << (attempt - 1)
	if d > DefaultBackoffMax || d <= 0 {
		d = DefaultBackoffMax
	}
	h := splitmix64(uint64(attempt)*0x9e3779b97f4a7c15 + hashString(key))
	// frac in [0.75, 1.25)
	frac := 0.75 + float64(h>>11)/float64(1<<53)/2
	return time.Duration(float64(d) * frac)
}

// hashString is FNV-1a, inlined so the hot retry path needs no allocs.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the finalizer used across the repo for positional
// randomness (see internal/ue); here it whitens the jitter key.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// drain discards the remainder of a response body and closes it, keeping
// the connection reusable. Read-only close: the error is unactionable.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	_ = resp.Body.Close()
}

func readErrBody(resp *http.Response) string {
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
	if err != nil {
		return resp.Status
	}
	return strings.TrimSpace(string(data))
}
