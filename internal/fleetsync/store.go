package fleetsync

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/nuwins/cellwheels/internal/atomicio"
)

// ErrDigestMismatch reports bytes that do not hash to the digest they
// were sent under. The store never keeps such bytes: the blob stays
// absent.
var ErrDigestMismatch = errors.New("fleetsync: content does not match its digest")

// Store is a content-addressed artifact store on disk:
//
//	<root>/blobs/<sha256>          immutable, digest-verified artifacts
//	<root>/manifests/vNNNNNN.json  one sync manifest per accepted run
//	<root>/sync-manifest.json      the latest of those
//
// A blob is written only after its bytes hash to its name, and the
// install is an atomic rename — so the blobs directory never holds a
// truncated or corrupt artifact, however pushes fail.
type Store struct {
	root string
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	for _, sub := range []string{"blobs", "manifests"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("fleetsync: open store: %w", err)
		}
	}
	return &Store{root: dir}, nil
}

// Root reports the store's directory.
func (s *Store) Root() string { return s.root }

func (s *Store) blobPath(digest string) string {
	return filepath.Join(s.root, "blobs", digest)
}

// Has reports whether the blob is stored.
func (s *Store) Has(digest string) bool {
	if !validDigest(digest) {
		return false
	}
	_, err := os.Stat(s.blobPath(digest))
	return err == nil
}

// Get returns a stored blob's bytes, re-verifying them against the
// digest — disk corruption surfaces as ErrDigestMismatch, not as silent
// bad data folded into a report.
func (s *Store) Get(digest string) ([]byte, error) {
	if !validDigest(digest) {
		return nil, fmt.Errorf("fleetsync: bad digest %q", digest)
	}
	data, err := os.ReadFile(s.blobPath(digest))
	if err != nil {
		return nil, err
	}
	if Digest(data) != digest {
		return nil, fmt.Errorf("%w (stored blob %s)", ErrDigestMismatch, digest)
	}
	return data, nil
}

// Put stores a blob, verifying it first. Storing the same blob twice is
// a no-op (content-addressed stores are idempotent).
func (s *Store) Put(digest string, data []byte) error {
	if !validDigest(digest) {
		return fmt.Errorf("fleetsync: bad digest %q", digest)
	}
	if Digest(data) != digest {
		return ErrDigestMismatch
	}
	if s.Has(digest) {
		return nil
	}
	return atomicio.WriteFileBytes(s.blobPath(digest), 0o644, data)
}

// WriteManifestVersion archives one sync-manifest version and refreshes
// the store's latest-manifest file, both atomically.
func (s *Store) WriteManifestVersion(version int, data []byte) error {
	name := fmt.Sprintf("v%06d.json", version)
	if err := atomicio.WriteFileBytes(filepath.Join(s.root, "manifests", name), 0o644, data); err != nil {
		return err
	}
	return atomicio.WriteFileBytes(filepath.Join(s.root, "sync-manifest.json"), 0o644, data)
}
