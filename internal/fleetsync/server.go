package fleetsync

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"github.com/nuwins/cellwheels/internal/fleet"
	"github.com/nuwins/cellwheels/internal/obs"
)

// Collector is the receiving half of a distributed fleet: an HTTP server
// state machine that accepts content-addressed run artifacts from
// workers, verifies each one by digest, validates it against the
// scenario's positional run matrix, and streams it through a
// fleet.Reducer. When every expected run has arrived, Done is closed and
// Result reads out statistics byte-identical to a single-process fleet.
//
// All mutable state is guarded by one mutex; handlers run on net/http's
// goroutines and take it only once a push's bytes are in hand. The
// reduction itself is slot-addressed, so whatever order pushes arrive
// in — including interleaved workers and retried duplicates — cannot
// show in the output.
type Collector struct {
	scenario string
	store    *Store
	obs      *obs.Recorder

	mu      sync.Mutex
	reducer *fleet.Reducer
	have    []HaveRun // accepted runs in acceptance order; sorted on read
	version int
	// manifestDirty marks a fold whose sync-manifest archive failed; the
	// next duplicate push (usually the worker's retry) retries the
	// persist.
	manifestDirty bool
	done          chan struct{}
}

// NewCollector builds a collector for one scenario. scenario is the
// fingerprint both sides must present (cmd/fleetrun uses the sha256 of
// the scenario file's bytes); reducer expects the scenario's full run
// matrix; store persists artifacts and sync-manifest versions. rec may
// be nil.
func NewCollector(scenario string, reducer *fleet.Reducer, store *Store, rec *obs.Recorder) (*Collector, error) {
	if scenario == "" {
		return nil, errors.New("fleetsync: collector needs a scenario fingerprint")
	}
	if reducer == nil || store == nil {
		return nil, errors.New("fleetsync: collector needs a reducer and a store")
	}
	c := &Collector{
		scenario: scenario,
		store:    store,
		obs:      rec,
		reducer:  reducer,
		done:     make(chan struct{}),
	}
	if reducer.Complete() {
		close(c.done)
	}
	return c, nil
}

// Done is closed once every expected run has been received and folded.
func (c *Collector) Done() <-chan struct{} { return c.done }

// Complete reports whether the reduction has every expected run.
func (c *Collector) Complete() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reducer.Complete()
}

// Result reads the reduction out. Callers normally wait for Done first;
// an early read is a valid partial fold (missing runs' slots are empty).
func (c *Collector) Result() *fleet.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reducer.Result()
}

// Manifest snapshots the collector's sync state.
func (c *Collector) Manifest() SyncManifest {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.manifestLocked()
}

func (c *Collector) manifestLocked() SyncManifest {
	have := make([]HaveRun, len(c.have))
	copy(have, c.have)
	// Acceptance order is arrival order; the manifest's public shape is
	// index order (indexes are unique, so the sort is total).
	sort.SliceStable(have, func(i, j int) bool { return have[i].Index < have[j].Index })
	man := SyncManifest{
		Schema:   SyncSchema,
		Scenario: c.scenario,
		Version:  c.version,
		Total:    c.reducer.Total(),
		Received: c.reducer.Received(),
		Have:     have,
	}
	man.Failed = c.reducer.Result().Manifest.Failed
	return man
}

// Handler returns the collector's HTTP interface, rooted at BasePath.
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+BasePath+"/status", c.handleStatus)
	mux.HandleFunc("PUT "+BasePath+"/runs/{digest}", c.handleRun)
	return mux
}

func (c *Collector) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Manifest())
}

// handleRun verifies one pushed artifact and folds it into the
// reduction. The body is read, hashed and decoded before the lock is
// taken, so a worker that stalls mid-body holds up only its own push.
// Rejections a retry can fix — a body that does not hash to its name,
// or one cut short — answer 400; a scenario mismatch (409), an
// oversized body (413) and a record that does not decode or that the
// reducer's positional validation refuses (422) are final. Pushing a
// folded run again is a duplicate no-op, so workers can retry blindly.
func (c *Collector) handleRun(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !validDigest(digest) {
		http.Error(w, "bad artifact digest", http.StatusBadRequest)
		return
	}
	if r.Header.Get(HeaderScenario) != c.scenario {
		http.Error(w, fmt.Sprintf("scenario mismatch: collector is reducing %s", c.scenario), http.StatusConflict)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBlobBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("artifact exceeds %d bytes", MaxBlobBytes), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "read artifact: "+err.Error(), http.StatusBadRequest)
		return
	}
	if Digest(data) != digest {
		c.obs.Counter("fleetsync/digest_rejects").Add(1)
		http.Error(w, ErrDigestMismatch.Error(), http.StatusBadRequest)
		return
	}
	art, err := DecodeArtifact(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reducer.Seen(art.Record.Index) {
		if c.manifestDirty {
			if err := c.persistManifestLocked(); err != nil {
				http.Error(w, "persist sync manifest: "+err.Error(), http.StatusInternalServerError)
				return
			}
			c.manifestDirty = false
		}
		writeJSON(w, http.StatusOK, PushResult{
			Status: PushDuplicate, Received: c.reducer.Received(), Total: c.reducer.Total(),
		})
		return
	}
	// The blob is stored before the fold: a failed write leaves nothing
	// folded, and the worker's retry starts from a clean slate.
	if err := c.store.Put(digest, data); err != nil {
		http.Error(w, "store artifact: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if err := c.reducer.Fold(art.Record, art.Metrics); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	c.version++
	c.have = append(c.have, HaveRun{Index: art.Record.Index, Digest: digest})
	c.obs.Counter("fleetsync/runs_received").Add(1)
	if c.reducer.Complete() {
		close(c.done)
	}
	if err := c.persistManifestLocked(); err != nil {
		// The fold is kept — it cannot be undone — and the archive retry
		// rides on the worker's push retry, which lands as a duplicate
		// and re-persists.
		c.manifestDirty = true
		http.Error(w, "persist sync manifest: "+err.Error(), http.StatusInternalServerError)
		return
	}
	c.manifestDirty = false
	writeJSON(w, http.StatusOK, PushResult{
		Status: PushAccepted, Received: c.reducer.Received(), Total: c.reducer.Total(),
	})
}

// persistManifestLocked archives the current sync-manifest version.
func (c *Collector) persistManifestLocked() error {
	data, err := json.MarshalIndent(c.manifestLocked(), "", "  ")
	if err != nil {
		return err
	}
	return c.store.WriteManifestVersion(c.version, append(data, '\n'))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(data); err != nil {
		return // client went away
	}
}
