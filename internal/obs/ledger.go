package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// The run ledger is the persistent synthesis history: one JSONL record
// per completed run (cold, cache-hit, dedup-joined or failed; CLI or
// daemon), appended crash-safely to a size-rotated on-disk file. The
// daemon replays a bounded tail on open so GET /v1/runs survives
// restarts; `loas runs` and future mining tools read the same format.
//
// Crash-safety model: every record is one write(2) of a full line, so a
// torn write can only corrupt the file's tail. The reader skips any
// line that does not decode to a RunRecord — a truncated final line is
// data loss of one record, never a fatal error.

// RunRecord is one completed run: identity, what ran, how it ended, and
// the full span tree + convergence iterations of the execution. It is
// both the ledger's line format and the GET /v1/runs/{id} payload.
type RunRecord struct {
	// ID is unique within one ledger lineage ("run-000042"); Seq is its
	// monotone sequence number, continued across daemon restarts.
	ID  string `json:"id"`
	Seq int64  `json:"seq"`
	// StartUnixNS timestamps the run start (wall clock).
	StartUnixNS int64 `json:"start_unix_ns"`
	// Source tells who executed the run: "daemon" or "cli".
	Source string `json:"source"`
	// Kind is the request family: synthesize | table1 | mc | layout.svg |
	// batch | explore.
	Kind     string `json:"kind"`
	Topology string `json:"topology,omitempty"`
	// Layout names the layout backend that served the run's
	// placement/routing stage; empty for the default (slicing).
	Layout string `json:"layout,omitempty"`
	Case   int    `json:"case,omitempty"`
	// Parent links a child run (one batch item, one explore probe) back
	// to the batch/explore run that spawned it. Empty for top-level runs.
	Parent string `json:"parent,omitempty"`
	// CacheKey is the content address of the result; SpecDigest hashes
	// just (tech, spec) so runs of the same target correlate across
	// request kinds.
	CacheKey   string `json:"cache_key,omitempty"`
	SpecDigest string `json:"spec_digest,omitempty"`
	// Outcome labels how the run ended: "ok" (cold execution), as
	// "cache-hit" (byte replay), "dedup" (joined an in-flight identical
	// run) or "error".
	Outcome    string `json:"outcome"`
	Error      string `json:"error,omitempty"`
	DurationNS int64  `json:"duration_ns"`
	// Converged / LayoutCalls / Bytes summarize the result: parasitic
	// fixpoint reached, layout-call count, response body size.
	Converged   bool `json:"converged,omitempty"`
	LayoutCalls int  `json:"layout_calls,omitempty"`
	Bytes       int  `json:"bytes,omitempty"`
	// Request is the canonicalized request body that produced this run
	// (compact JSON, recorded after normalization with the resolved spec
	// embedded) — what `loas replay` re-issues. Absent for GET-style
	// runs and for bodies over the daemon's recording bound.
	Request json.RawMessage `json:"request,omitempty"`
	// BodySHA256 is the hex SHA-256 of the response body; replay checks
	// byte-identity of replayed responses against it.
	BodySHA256 string `json:"body_sha256,omitempty"`
	// Spans is the request-lifecycle tree; Iterations the convergence
	// trace (cold runs only — replays carry no new iterations).
	Spans      []SpanRecord `json:"spans,omitempty"`
	Iterations []Iteration  `json:"iterations,omitempty"`
}

// EncodeRunRecord renders rec as its canonical ledger line (compact
// JSON + newline). The encoding round-trips byte-identically through
// DecodeRunRecords — pinned by FuzzLedgerDecode.
func EncodeRunRecord(rec RunRecord) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(rec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeRunRecords parses JSONL data, skipping lines that do not decode
// (torn tail after a crash, hand-edited junk). If max > 0 only the last
// max records are kept. Never panics, never returns an error: a ledger
// is history, and unreadable history is dropped, not fatal.
func DecodeRunRecords(data []byte, max int) []RunRecord {
	var out []RunRecord
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec RunRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			continue
		}
		if rec.ID == "" && rec.Seq == 0 && rec.Kind == "" {
			continue // decoded but empty — not a run record
		}
		out = append(out, rec)
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// ReadLedger reads the records of the ledger at path without opening it
// for append: the rotated <path>.1 generation first, then the active
// file, in write order. max > 0 keeps only the newest max records. This
// is the replay tool's loader — read-only, so it is safe against a
// ledger another process is still appending to (at worst the torn tail
// line is skipped, like any crash tail).
func ReadLedger(path string, max int) []RunRecord {
	var all []RunRecord
	for _, p := range []string{path + ".1", path} {
		data, err := os.ReadFile(p)
		if err != nil {
			continue // missing generation
		}
		all = append(all, DecodeRunRecords(data, 0)...)
	}
	if max > 0 && len(all) > max {
		all = all[len(all)-max:]
	}
	return all
}

// LedgerOptions sizes a ledger. Zero values mean defaults.
type LedgerOptions struct {
	// MaxBytes triggers rotation: when the active file exceeds it, the
	// file is renamed to <path>.1 (replacing the previous generation)
	// and a fresh file is started. Default 8 MiB.
	MaxBytes int64
}

// maxReplay bounds how many records OpenLedger reads back from disk
// (newest win): as many as the daemon's run store holds.
const maxReplay = 1024

// Ledger is the append-side handle: open once, Append per run, Close on
// shutdown. Safe for concurrent Append.
type Ledger struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	size     int64
	maxBytes int64
	history  []RunRecord
	lastSeq  int64
}

// OpenLedger opens (creating if needed) the ledger at path and replays
// the bounded tail of its history — the rotated generation first, then
// the active file, keeping the newest maxReplay records.
func OpenLedger(path string, opts LedgerOptions) (*Ledger, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 8 << 20
	}
	all := ReadLedger(path, maxReplay)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open ledger: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: stat ledger: %w", err)
	}
	l := &Ledger{path: path, f: f, size: st.Size(), maxBytes: opts.MaxBytes, history: all}
	for _, r := range all {
		if r.Seq > l.lastSeq {
			l.lastSeq = r.Seq
		}
	}
	return l, nil
}

// History returns the records replayed at open (oldest first). The
// slice is owned by the caller.
func (l *Ledger) History() []RunRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]RunRecord, len(l.history))
	copy(out, l.history)
	return out
}

// LastSeq reports the highest sequence number seen at open or appended
// since — the daemon continues numbering from here after a restart.
func (l *Ledger) LastSeq() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Append writes one record as a single line. Safe on a nil ledger
// (no-op) so call sites thread it through unconditionally.
func (l *Ledger) Append(rec RunRecord) error {
	if l == nil {
		return nil
	}
	line, err := EncodeRunRecord(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("obs: ledger closed")
	}
	if l.size > 0 && l.size+int64(len(line)) > l.maxBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := l.f.Write(line)
	l.size += int64(n)
	if err != nil {
		return fmt.Errorf("obs: ledger append: %w", err)
	}
	if rec.Seq > l.lastSeq {
		l.lastSeq = rec.Seq
	}
	return nil
}

// rotateLocked swaps the active file out to <path>.1 (replacing any
// previous generation) and starts a fresh one. Whether or not the
// rename succeeds, <path> is then reopened for append, so a failed
// rotation never leaves the ledger on a closed handle: the active file
// keeps its size, and the next Append over the bound retries.
func (l *Ledger) rotateLocked() error {
	err := l.f.Close()
	if err == nil {
		err = os.Rename(l.path, l.path+".1")
	}
	if err == nil {
		l.size = 0
	}
	f, oerr := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if oerr != nil {
		return fmt.Errorf("obs: ledger reopen: %w", oerr)
	}
	l.f = f
	if err != nil {
		return fmt.Errorf("obs: ledger rotate: %w", err)
	}
	return nil
}

// Close flushes and closes the active file. Idempotent; safe on nil.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
