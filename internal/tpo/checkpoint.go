package tpo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"crowdtopk/internal/dist"
)

// CheckpointSchema is the version number written into leaf-set checkpoint
// envelopes. Bump it when the envelope or the embedded leaf-set encoding
// changes incompatibly; readers reject other versions with a MismatchError
// instead of guessing.
const CheckpointSchema = 1

// checkpointKind tags the envelope so unrelated JSON is rejected early.
const checkpointKind = "crowdtopk/leafset"

// MismatchError reports a checkpoint that cannot be restored against the
// caller's expectations: wrong schema version, wrong payload kind, or a
// dataset digest that does not match the dataset the caller is resuming
// with. It is a typed error so servers can distinguish "stale or foreign
// checkpoint" (client error) from I/O and decoding failures.
type MismatchError struct {
	Field string // "schema", "kind" or "dataset digest"
	Want  string
	Got   string
}

func (e *MismatchError) Error() string {
	// No package prefix: the session envelope reuses this type for its own
	// mismatches (session.MismatchError is an alias).
	return fmt.Sprintf("checkpoint %s mismatch: want %s, got %s", e.Field, e.Want, e.Got)
}

// checkpointJSON is the versioned envelope around the leaf-set encoding.
type checkpointJSON struct {
	Schema  int             `json:"schema"`
	Kind    string          `json:"kind"`
	Dataset string          `json:"dataset,omitempty"` // content digest of the score model
	Leaves  json.RawMessage `json:"leaves"`
}

// WriteCheckpoint serializes the leaf set inside a versioned envelope that
// records the schema version and a content digest of the dataset the leaves
// were computed from (see internal/dataset.Digest). ReadCheckpoint refuses
// to restore the payload against a different schema or dataset, which
// WriteJSON alone cannot detect.
func (ls *LeafSet) WriteCheckpoint(w io.Writer, datasetDigest string) error {
	var buf bytes.Buffer
	if err := ls.WriteJSON(&buf); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(checkpointJSON{
		Schema:  CheckpointSchema,
		Kind:    checkpointKind,
		Dataset: datasetDigest,
		Leaves:  json.RawMessage(buf.Bytes()),
	})
}

// ReadCheckpoint restores a leaf set written by WriteCheckpoint, validating
// the envelope before touching the payload: the schema version must equal
// CheckpointSchema and, when wantDatasetDigest is non-empty, the recorded
// dataset digest must match it exactly. Mismatches return a *MismatchError;
// malformed payloads return the leaf-set decoder's errors.
func ReadCheckpoint(r io.Reader, wantDatasetDigest string) (*LeafSet, error) {
	var env checkpointJSON
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("tpo: decoding checkpoint envelope: %w", err)
	}
	if env.Kind != checkpointKind {
		return nil, &MismatchError{Field: "kind", Want: checkpointKind, Got: fmt.Sprintf("%q", env.Kind)}
	}
	if env.Schema != CheckpointSchema {
		return nil, &MismatchError{Field: "schema", Want: fmt.Sprint(CheckpointSchema), Got: fmt.Sprint(env.Schema)}
	}
	if wantDatasetDigest != "" && env.Dataset != wantDatasetDigest {
		return nil, &MismatchError{Field: "dataset digest", Want: wantDatasetDigest, Got: env.Dataset}
	}
	return ReadLeafSetJSON(bytes.NewReader(env.Leaves))
}

// FromLeafSet reconstructs a live tree from a leaf-set snapshot and the
// score model it was computed from: the trie of the snapshot's paths with
// the snapshot's (normalized) weights as leaf posteriors, over a freshly
// prepared evaluation grid. It is the restore half of session checkpointing
// — the returned tree prunes, reweights and (for partially built incr trees,
// ls.K < k) extends exactly as the original would.
//
// Paths are inserted in snapshot order and children appended in first-
// appearance order, which reproduces the original tree's leaf enumeration
// order exactly; downstream float summations (residual sweeps, measure
// values) therefore run over the same operands in the same order. Weights
// agree with the original tree's up to renormalization rounding (a few
// ulps — LeafSet snapshots are normalized, in-tree posteriors only nearly
// so), which never moves a ranking or a question choice: all selection
// tie-breaks use epsilon comparisons.
func FromLeafSet(ds []dist.Distribution, k int, ls *LeafSet, opt BuildOptions) (*Tree, error) {
	if ls == nil || ls.Len() == 0 {
		return nil, fmt.Errorf("%w: empty leaf set", ErrInvalidInput)
	}
	if ls.K < 1 || ls.K > k {
		return nil, fmt.Errorf("%w: leaf set depth %d outside [1, K=%d]", ErrInvalidInput, ls.K, k)
	}
	t, err := prepare(ds, k, opt, nil)
	if err != nil {
		return nil, err
	}
	t.opt = opt.withDefaults()
	t.depth = ls.K
	// The snapshot carries posteriors, not raw build mass; record the unit
	// mass the posteriors sum to so BuildMass stays a sane diagnostic.
	t.buildMass = 1
	for i, p := range ls.Paths {
		if len(p) != ls.K {
			return nil, fmt.Errorf("%w: path %d has length %d, want snapshot depth %d", ErrInvalidInput, i, len(p), ls.K)
		}
		n := t.Root
		for d, id := range p {
			if id < 0 || id >= len(ds) {
				return nil, fmt.Errorf("%w: path %d references tuple %d outside dataset of %d", ErrInvalidInput, i, id, len(ds))
			}
			var child *Node
			for _, c := range n.Children {
				if c.Tuple == id {
					child = c
					break
				}
			}
			if child == nil {
				child = &Node{Tuple: id, depth: d + 1}
				n.Children = append(n.Children, child)
			}
			n = child
		}
		n.Prob += ls.W[i]
	}
	if err := t.renormalize(); err != nil {
		return nil, err
	}
	return t, nil
}
