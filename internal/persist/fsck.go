package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"crowdtopk/internal/par"
	"crowdtopk/internal/session"
)

// FsckOptions configures an offline data-dir health check.
type FsckOptions struct {
	// Repair truncates repairable torn WAL tails in place (the same repair
	// recovery applies lazily, done eagerly and reported).
	Repair bool
	// Deep fully restores each snapshot (digest verification, tree rebuild)
	// and replays its WAL through the session transition instead of only
	// validating framing — slow but exhaustive.
	Deep bool
	// Pool optionally lends deep restores the process worker budget.
	Pool *par.Budget
}

// SessionFsck is the health report for one stored session.
type SessionFsck struct {
	ID            string `json:"id"`
	State         string `json:"state,omitempty"`
	Asked         int    `json:"asked"`
	WALRecords    int    `json:"wal_records"`
	TornTailBytes int64  `json:"torn_tail_bytes,omitempty"`
	Repaired      bool   `json:"repaired,omitempty"`
	SnapshotError string `json:"snapshot_error,omitempty"`
	WALError      string `json:"wal_error,omitempty"`
	ReplayError   string `json:"replay_error,omitempty"`
	Healthy       bool   `json:"healthy"`
}

// FsckReport is the health report for a whole data directory.
type FsckReport struct {
	Dir         string           `json:"dir"`
	Sessions    []SessionFsck    `json:"sessions"`
	Quarantined []QuarantineInfo `json:"quarantined,omitempty"`
	Healthy     int              `json:"healthy"`
	Unhealthy   int              `json:"unhealthy"`
	TornTails   int              `json:"torn_tails"`
	Repaired    int              `json:"repaired"`
}

// Fsck walks a file-backed store's data directory offline and reports
// per-session snapshot/WAL health, optionally repairing truncatable torn WAL
// tails. A torn tail alone does not make a session unhealthy — recovery
// tolerates it — but it is reported so an operator knows a crash landed
// mid-append. Run it against a stopped server (or a copy): it opens files a
// live server is appending to.
func Fsck(dir string, opts FsckOptions) (*FsckReport, error) {
	if dir == "" {
		return nil, errors.New("persist: fsck needs a data directory")
	}
	root := filepath.Join(dir, "sessions")
	rep := &FsckReport{Dir: dir}
	entries, err := os.ReadDir(root)
	if errors.Is(err, fs.ErrNotExist) {
		// A data dir that never persisted a session is trivially healthy,
		// but a path that does not exist at all is an operator typo.
		if _, derr := os.Stat(dir); derr != nil {
			return nil, fmt.Errorf("persist: fsck: %w", derr)
		}
		return rep, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: fsck: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || ValidateID(e.Name()) != nil {
			continue
		}
		s := fsckSession(root, e.Name(), opts)
		rep.Sessions = append(rep.Sessions, s)
		if s.Healthy {
			rep.Healthy++
		} else {
			rep.Unhealthy++
		}
		if s.TornTailBytes > 0 {
			rep.TornTails++
		}
		if s.Repaired {
			rep.Repaired++
		}
	}
	sort.Slice(rep.Sessions, func(i, j int) bool { return rep.Sessions[i].ID < rep.Sessions[j].ID })
	rep.Quarantined = quarantined(filepath.Join(dir, "quarantine"))
	return rep, nil
}

// fsckSession checks one session directory without mutating it (except the
// opted-in torn-tail truncation).
func fsckSession(root, id string, opts FsckOptions) SessionFsck {
	s := SessionFsck{ID: id}
	snapPath := filepath.Join(root, id, "snapshot.json")
	walPath := filepath.Join(root, id, "wal.log")

	snap, err := os.ReadFile(snapPath)
	var sess *session.Session
	switch {
	case errors.Is(err, fs.ErrNotExist):
		s.SnapshotError = "snapshot missing (wal is a delta over a base that is gone)"
	case err != nil:
		s.SnapshotError = err.Error()
	case opts.Deep:
		sess, err = session.Restore(bytes.NewReader(snap), opts.Pool)
		if err != nil {
			s.SnapshotError = err.Error()
		} else {
			st := sess.Status()
			s.State = string(st.State)
			s.Asked = st.Asked
		}
	default:
		info, perr := session.PeekCheckpoint(snap)
		if perr != nil {
			s.SnapshotError = perr.Error()
		} else {
			s.State = string(info.State)
			s.Asked = info.Asked
		}
	}

	walData, err := os.ReadFile(walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.WALError = err.Error()
	} else if len(walData) > 0 {
		recs, validEnd, torn, rerr := readWAL(walData)
		s.WALRecords = len(recs)
		if rerr != nil {
			s.WALError = rerr.Error()
		}
		if torn {
			s.TornTailBytes = int64(len(walData)) - validEnd
			if opts.Repair {
				if terr := os.Truncate(walPath, validEnd); terr != nil {
					s.WALError = terr.Error()
				} else {
					s.Repaired = true
				}
			}
		}
		if opts.Deep && sess != nil && rerr == nil {
			s.ReplayError = fsckReplay(sess, recs)
			if s.ReplayError == "" {
				s.Asked = sess.Status().Asked
			}
		}
	}
	s.Healthy = s.SnapshotError == "" && s.WALError == "" && s.ReplayError == ""
	return s
}

// fsckReplay replays decoded WAL records through the restored session the
// same way recovery does, returning the first inconsistency as a string.
func fsckReplay(sess *session.Session, recs []walRecord) string {
	base := sess.Status().Asked
	replayed := 0
	for _, rec := range recs {
		if rec.Seq < uint64(base) {
			continue // covered by the snapshot (compaction crash window)
		}
		if rec.Seq != uint64(base+replayed) {
			return fmt.Sprintf("wal gap: record seq %d where %d was expected", rec.Seq, base+replayed)
		}
		if err := sess.SubmitAnswer(rec.Answer); err != nil {
			return fmt.Sprintf("replaying record seq %d: %v", rec.Seq, err)
		}
		replayed++
	}
	return ""
}
