package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Typed quarantine reasons. They travel to /v1/sessions so an operator can
// tell at a glance what class of damage took a session out of service.
const (
	ReasonCorruptSnapshot = "corrupt-snapshot"
	ReasonMissingSnapshot = "missing-snapshot"
	ReasonCorruptWAL      = "corrupt-wal"
	ReasonUnreadable      = "unreadable"
)

// QuarantineInfo describes one quarantined session.
type QuarantineInfo struct {
	ID     string `json:"id"`
	Reason string `json:"reason"`
	Detail string `json:"detail,omitempty"`
	Time   string `json:"time,omitempty"` // RFC 3339, when it was quarantined
}

// ScanResult is what a boot scan found: the recoverable session ids, the
// sessions sitting in quarantine (pre-existing and newly moved), and entries
// the scan skipped because they are not usable session directories.
type ScanResult struct {
	IDs         []string
	Quarantined []QuarantineInfo
	Skipped     []string
}

// QuarantineReasonFor classifies a hydration error into a typed quarantine
// reason plus a human detail string. It understands *CorruptError paths;
// anything else is ReasonUnreadable.
func QuarantineReasonFor(err error) (reason, detail string) {
	var ce *CorruptError
	if errors.As(err, &ce) {
		detail = ce.Err.Error()
		switch {
		case strings.HasSuffix(ce.Path, "wal.log"):
			return ReasonCorruptWAL, detail
		case strings.Contains(detail, "snapshot is missing"):
			return ReasonMissingSnapshot, detail
		default:
			return ReasonCorruptSnapshot, detail
		}
	}
	return ReasonUnreadable, err.Error()
}

// quarantineMarker is the metadata file name inside a quarantined session's
// directory. It must fail ValidateID so a quarantine dir re-scanned as a
// session root can never mistake it for a session.
const quarantineMarker = "quarantine.json"

func (f *File) quarantineRoot() string { return filepath.Join(filepath.Dir(f.dir), "quarantine") }

// Quarantine moves the session's directory to <data-dir>/quarantine/<id>/,
// drops a quarantine.json marker with the typed reason inside it, and
// tombstones the id so racing Puts cannot resurrect the directory. An older
// quarantine of the same id is superseded.
func (f *File) Quarantine(id, reason, detail string) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	st, err := f.state(id)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	src := f.sessionDir(id)
	if _, serr := os.Stat(src); errors.Is(serr, fs.ErrNotExist) {
		return ErrNotFound
	}
	if st.wal != nil {
		_ = st.wal.Close()
		st.wal = nil
	}
	qroot := f.quarantineRoot()
	if err := os.MkdirAll(qroot, 0o755); err != nil {
		return fmt.Errorf("persist: creating quarantine area: %w", err)
	}
	dst := filepath.Join(qroot, id)
	if err := os.RemoveAll(dst); err != nil {
		return fmt.Errorf("persist: clearing stale quarantine for %s: %w", id, err)
	}
	if err := os.Rename(src, dst); err != nil {
		return fmt.Errorf("persist: quarantining %s: %w", id, err)
	}
	info := QuarantineInfo{ID: id, Reason: reason, Detail: detail, Time: time.Now().UTC().Format(time.RFC3339)}
	if data, merr := json.Marshal(info); merr == nil {
		// Best effort: a missing marker degrades the listing, not recovery.
		_ = os.WriteFile(filepath.Join(dst, quarantineMarker), append(data, '\n'), 0o644)
	}
	f.syncDir(qroot)
	f.syncDir(f.dir)
	st.deleted = true
	f.c.quarantines.Add(1)
	return nil
}

// quarantined lists the quarantine area under qroot, sorted by id; nil when
// it is missing or unreadable.
func quarantined(qroot string) []QuarantineInfo {
	entries, err := os.ReadDir(qroot)
	if err != nil {
		return nil
	}
	var infos []QuarantineInfo
	for _, e := range entries {
		if e.IsDir() && ValidateID(e.Name()) == nil {
			infos = append(infos, readQuarantineMarker(qroot, e.Name()))
		}
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// readQuarantineMarker loads a quarantined session's marker, degrading to an
// "unknown reason" entry when the marker is missing or unreadable.
func readQuarantineMarker(qroot, id string) QuarantineInfo {
	info := QuarantineInfo{ID: id, Reason: ReasonUnreadable, Detail: "quarantine marker missing"}
	data, err := os.ReadFile(filepath.Join(qroot, id, quarantineMarker))
	if err != nil {
		return info
	}
	var m QuarantineInfo
	if json.Unmarshal(data, &m) == nil && m.Reason != "" {
		m.ID = id
		return m
	}
	return info
}

// Scan is the boot scan: it walks the sessions root, returning every id that
// has at least a snapshot to recover from, quarantining session directories
// that provably cannot be recovered (directory present, snapshot missing),
// and skipping stray entries — one damaged directory must never abort a
// boot. The root itself being unreadable is still fatal: that is a data-dir
// problem, not a session problem.
func (f *File) Scan() (ScanResult, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ScanResult{}, ErrClosed
	}
	f.mu.Unlock()
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return ScanResult{}, fmt.Errorf("persist: scanning %s: %w", f.dir, err)
	}
	var res ScanResult
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || ValidateID(name) != nil {
			res.Skipped = append(res.Skipped, name)
			continue
		}
		if _, serr := os.Stat(f.snapPath(name)); serr != nil {
			if errors.Is(serr, fs.ErrNotExist) {
				// The WAL is a delta over a base that is gone: unrecoverable,
				// move it aside so hydration never trips over it.
				if qerr := f.Quarantine(name, ReasonMissingSnapshot, "session directory exists but snapshot is missing"); qerr != nil {
					res.Skipped = append(res.Skipped, name)
				}
			} else {
				res.Skipped = append(res.Skipped, name)
			}
			continue
		}
		res.IDs = append(res.IDs, name)
	}
	sort.Strings(res.IDs)
	// Includes anything Scan just moved plus quarantines from prior boots.
	res.Quarantined = quarantined(f.quarantineRoot())
	return res, nil
}
