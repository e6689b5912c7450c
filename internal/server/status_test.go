package server

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"crowdtopk/internal/service"
	"crowdtopk/internal/session"
	"crowdtopk/internal/tpo"
)

// TestStatusFor pins the one error→status mapping the codec owns: every
// typed failure the service layer can surface, classified through wrapping,
// and the precedence rule that a storage failure is a server error even when
// its cause would otherwise read as a client mistake.
func TestStatusFor(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"not found", service.ErrNotFound, http.StatusNotFound},
		{"wrapped not found", fmt.Errorf("ctx: %w", service.ErrNotFound), http.StatusNotFound},
		{"at capacity", service.ErrFull, http.StatusServiceUnavailable},
		{"session done", session.ErrDone, http.StatusConflict},
		{"unknown question", session.ErrUnknownQuestion, http.StatusConflict},
		{"bad input", service.ErrBadInput, http.StatusBadRequest},
		{"invalid config", session.ErrInvalidConfig, http.StatusBadRequest},
		{"invalid checkpoint", session.ErrInvalidCheckpoint, http.StatusBadRequest},
		{"unknown algorithm", session.ErrUnknownAlgorithm, http.StatusBadRequest},
		{"tpo invalid input", tpo.ErrInvalidInput, http.StatusBadRequest},
		{"tpo too large", tpo.ErrTooLarge, http.StatusBadRequest},
		{"checkpoint mismatch", &tpo.MismatchError{Field: "schema", Want: "1", Got: "9"}, http.StatusBadRequest},
		{"unclassified", errors.New("boom"), http.StatusInternalServerError},
		// A batch error classifies by its cause: the partial-accept count
		// changes the envelope, not the status.
		{"batch stopped by done", &service.BatchError{Accepted: 2, Err: session.ErrDone}, http.StatusConflict},
		{"batch stopped by bad input", &service.BatchError{Accepted: 1, Err: fmt.Errorf("%w: self-comparison", service.ErrBadInput)}, http.StatusBadRequest},
		// Storage failures win over whatever they wrap: a digest mismatch
		// found while hydrating from disk is corruption (500), not the
		// client's bad checkpoint (400).
		{"storage failure", &service.StorageError{Op: "hydrating", Err: errors.New("io")}, http.StatusInternalServerError},
		{"storage wrapping client-class cause", &service.StorageError{
			Op:  "hydrating session s_1",
			Err: &tpo.MismatchError{Field: "dataset digest", Want: "a", Got: "b"},
		}, http.StatusInternalServerError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := statusFor(tc.err); got != tc.want {
				t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
			}
		})
	}
}
