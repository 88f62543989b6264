// Package serve is the service mode of cellwheels: a long-lived daemon
// (`cellwheels serve`) that runs campaigns, fleets, and fleetsync collections
// as jobs behind an HTTP/JSON API. The daemon adds scheduling, dedup,
// and transport around the library — never simulation semantics: every
// artifact a job produces is byte-identical to the equivalent
// `cellwheels run` or `cellwheels fleet` invocation, pinned by tests
// under -race.
//
// Jobs are content-addressed by their whole spec; campaign runs are
// addressed a second time by Config.Fingerprint. A campaign job whose
// config an earlier job already ran to the end copies that job's
// dataset.json and report.txt byte for byte (and derives its CSVs from
// the copied dataset) instead of running the campaign again; if those
// files cannot be read, it runs. GET /v1/metrics serves the daemon's
// counters live, serve/run_reuse/{hits,misses} among them.
package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"github.com/nuwins/cellwheels"
	"github.com/nuwins/cellwheels/internal/obs"
)

// Job kinds.
const (
	KindCampaign = "campaign" // one cellwheels.Run; artifacts dataset.json, report.txt, manifest.json
	KindFleet    = "fleet"    // one cellwheels.RunFleet; artifacts fleet-report.txt, fleet-manifest.json, manifest.json
	KindCollect  = "collect"  // host a fleetsync collector until its run matrix completes
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobSpec is the submission body of POST /v1/jobs. Decoding is strict
// (unknown keys are errors), mirroring the CLI's scenario parsing: a
// typo fails at submission, not after queueing.
type JobSpec struct {
	// Kind selects what the job runs: "campaign", "fleet", or "collect".
	Kind string `json:"kind"`
	// Config is the campaign configuration (kind "campaign" only).
	Config *cellwheels.Config `json:"config,omitempty"`
	// CSV additionally exports the campaign's per-table CSV artifacts
	// (kind "campaign" only).
	CSV bool `json:"csv,omitempty"`
	// Scenario is the fleet scenario (kinds "fleet" and "collect"),
	// with the ParseFleetScenario layout.
	Scenario *cellwheels.FleetConfig `json:"scenario,omitempty"`
	// Fingerprint is the scenario fingerprint a collect job's workers
	// must present (kind "collect" only). `cellwheels fleet -push`
	// fingerprints the scenario file's exact bytes (sha256), so
	// submitters pushing from the CLI pass that hash here. Empty means the sha256 of the
	// scenario's canonical parsed form — fine when every pusher is
	// another daemon client, wrong for CLI workers.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// ParseJobSpec strictly decodes, validates, and canonicalizes a job
// submission, returning the spec and its deterministic job ID: the
// sha256 of the spec's canonical re-marshalled form (fixed field order,
// parsed values). Two submissions that parse to the same spec — however
// their JSON was formatted — get the same ID, which is what makes
// re-submission idempotent. The spec returned is the canonical form
// decoded again, so equal IDs also mean equal specs: an empty sweep and
// a missing one, or two spellings of a sweep value, come back the same.
func ParseJobSpec(r io.Reader) (JobSpec, string, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, "", fmt.Errorf("bad job spec: %w", err)
	}
	if err := validateSpec(&spec); err != nil {
		return JobSpec{}, "", err
	}
	canonical, err := json.Marshal(spec)
	if err != nil {
		return JobSpec{}, "", fmt.Errorf("bad job spec: %w", err)
	}
	var out JobSpec
	if err := json.Unmarshal(canonical, &out); err != nil {
		return JobSpec{}, "", fmt.Errorf("bad job spec: %w", err)
	}
	return out, fmt.Sprintf("%x", sha256.Sum256(canonical)), nil
}

// validateSpec rejects malformed submissions and fills derivable
// defaults (a collect job's fingerprint) before the ID is computed.
func validateSpec(spec *JobSpec) error {
	switch spec.Kind {
	case KindCampaign:
		if spec.Config == nil {
			return fmt.Errorf("campaign job needs a config")
		}
		if spec.Scenario != nil || spec.Fingerprint != "" {
			return fmt.Errorf("campaign job takes only config and csv")
		}
		if err := spec.Config.Validate(); err != nil {
			return err
		}
	case KindFleet, KindCollect:
		if spec.Scenario == nil {
			return fmt.Errorf("%s job needs a scenario", spec.Kind)
		}
		if spec.Config != nil || spec.CSV {
			return fmt.Errorf("%s job takes a scenario, not a campaign config", spec.Kind)
		}
		if spec.Kind == KindFleet && spec.Fingerprint != "" {
			return fmt.Errorf("fingerprint only makes sense for collect jobs")
		}
		if spec.Scenario.ArchiveDir != "" {
			return fmt.Errorf("archive_dir is not supported in service jobs; artifacts are served per job")
		}
		if err := spec.Scenario.Validate(); err != nil {
			return err
		}
		if spec.Kind == KindCollect && spec.Fingerprint == "" {
			canonical, err := json.Marshal(spec.Scenario)
			if err != nil {
				return fmt.Errorf("bad scenario: %w", err)
			}
			spec.Fingerprint = fmt.Sprintf("%x", sha256.Sum256(canonical))
		}
	case "":
		return fmt.Errorf("job spec needs a kind (campaign, fleet, or collect)")
	default:
		return fmt.Errorf("unknown job kind %q (want campaign, fleet, or collect)", spec.Kind)
	}
	return nil
}

// Job is one unit of daemon work. Identity is content-addressed (see
// ParseJobSpec), execution state is guarded by mu, and every job owns a
// directory its artifacts are atomically written into plus a private
// obs recorder the progress endpoint snapshots live.
type Job struct {
	ID   string
	Spec JobSpec
	dir  string
	rec  *obs.Recorder
	done chan struct{} // closed on done or failed

	mu        sync.Mutex
	state     string
	errMsg    string
	artifacts []string
}

func newJob(id string, spec JobSpec, dir string) *Job {
	return &Job{
		ID:    id,
		Spec:  spec,
		dir:   dir,
		rec:   obs.New(),
		done:  make(chan struct{}),
		state: StateQueued,
	}
}

// Done is closed once the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
}

// finish moves the job to its terminal state and wakes progress
// followers. Artifacts recorded before a failure stay downloadable —
// a fleet job with failed runs still serves its manifest.
func (j *Job) finish(err error) {
	j.mu.Lock()
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
	} else {
		j.state = StateDone
	}
	j.mu.Unlock()
	close(j.done)
}

// addArtifact publishes one downloadable file (already written into the
// job directory) under its bare name.
func (j *Job) addArtifact(name string) {
	j.mu.Lock()
	j.artifacts = append(j.artifacts, name)
	j.mu.Unlock()
}

// hasArtifact reports whether name was published by addArtifact — the
// only gate the artifact endpoint serves through, so nothing outside
// the published list (and no path-traversal spelling of anything) is
// reachable.
func (j *Job) hasArtifact(name string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, a := range j.artifacts {
		if a == name {
			return true
		}
	}
	return false
}

// JobStatus is the wire form of a job in GET /v1/jobs responses.
type JobStatus struct {
	ID        string   `json:"id"`
	Kind      string   `json:"kind"`
	State     string   `json:"state"`
	Error     string   `json:"error,omitempty"`
	Artifacts []string `json:"artifacts,omitempty"`
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	arts := make([]string, len(j.artifacts))
	copy(arts, j.artifacts)
	return JobStatus{
		ID:        j.ID,
		Kind:      j.Spec.Kind,
		State:     j.state,
		Error:     j.errMsg,
		Artifacts: arts,
	}
}

// Progress is the wire form of GET /v1/jobs/{id}/progress: the job's
// state plus a live snapshot of its obs registry — the same counters and
// gauges the -progress CLI reporter renders.
type Progress struct {
	ID    string       `json:"id"`
	State string       `json:"state"`
	Error string       `json:"error,omitempty"`
	Obs   obs.Snapshot `json:"obs"`
}

// progress snapshots the job's live counters. Safe at any state: a
// queued job reports an empty snapshot.
func (j *Job) progress() Progress {
	j.mu.Lock()
	state, errMsg := j.state, j.errMsg
	j.mu.Unlock()
	return Progress{ID: j.ID, State: state, Error: errMsg, Obs: j.rec.Snapshot()}
}
