// Package fleetsync distributes a fleet across machines: workers execute
// disjoint subsets of a scenario's sweep cells and push each finished
// run's artifact to a collector over HTTP; the collector verifies every
// artifact by content digest and streams it through the same
// slot-addressed reduction (fleet.Reducer) a single-process fleet uses —
// so the merged report and fleet manifest are byte-identical to running
// the whole scenario in one process, whatever the workers, network
// faults, or arrival order did.
//
// The wire protocol is one content-addressed request per run:
//
//	GET {base}/status         → SyncManifest (what the collector has)
//	PUT {base}/runs/{digest}  → push one run's artifact bytes
//
// A push carries the artifact's canonical bytes as its body and the
// scenario fingerprint in HeaderScenario. Artifacts are immutable and
// named by the sha256 of those bytes, so every push is verifiable at the
// receiver: a body that does not hash to its name is rejected (and the
// worker retries), never stored or folded. Every pushed run is validated
// against the scenario's positional run matrix before it is folded, so a
// confused worker cannot corrupt the reduction. Pushes are idempotent:
// re-pushing a folded run is a no-op, which is what makes blind worker
// retries safe.
package fleetsync

import "fmt"

// SyncSchema versions the wire protocol and the sync manifest layout.
const SyncSchema = 2

// BasePath prefixes every fleetsync route.
const BasePath = "/fleetsync/v1"

// MaxBlobBytes caps one pushed artifact. An artifact is a run record
// plus a few dozen flat metrics — under 2 KiB — and the collector holds
// a push's body in memory while it verifies it, so 1 MiB is ample
// headroom that still bounds what one lying or broken worker can make
// the collector buffer.
const MaxBlobBytes = 1 << 20

// HeaderScenario carries the pushing worker's scenario fingerprint; a
// push for any other scenario than the collector's is rejected.
const HeaderScenario = "X-Fleetsync-Scenario"

// SyncManifest is the collector's versioned statement of what it holds:
// which runs of the scenario's matrix have been received and folded. The
// version increments on every accepted run, and each version is archived
// in the collector's store, so the sync state has an inspectable history.
type SyncManifest struct {
	Schema int `json:"schema"`
	// Scenario fingerprints the scenario document both sides must agree
	// on; pushes for any other scenario are rejected.
	Scenario string `json:"scenario"`
	// Version counts accepted runs, from 0 (empty collector).
	Version int `json:"version"`
	// Total is the size of the expected run matrix; Received of those
	// have been folded, Failed of the received runs failed on their
	// worker.
	Total    int `json:"total"`
	Received int `json:"received"`
	Failed   int `json:"failed"`
	// Have lists the folded runs' full-matrix indexes, ascending, with
	// the digest of each run's artifact — the name it is stored under in
	// the collector's Store.
	Have []HaveRun `json:"have"`
}

// HaveRun names one folded run and its artifact digest.
type HaveRun struct {
	Index  int    `json:"index"`
	Digest string `json:"digest"`
}

// Push response statuses.
const (
	// PushAccepted: the run was verified and folded.
	PushAccepted = "accepted"
	// PushDuplicate: the run was already folded; the push was a no-op.
	// Idempotent retries land here.
	PushDuplicate = "duplicate"
)

// PushResult is the collector's answer to a push.
type PushResult struct {
	Status   string `json:"status"`
	Received int    `json:"received"`
	Total    int    `json:"total"`
}

// wireError renders protocol failures consistently.
func wireError(op string, code int, detail string) error {
	return fmt.Errorf("fleetsync: %s: HTTP %d: %s", op, code, detail)
}
