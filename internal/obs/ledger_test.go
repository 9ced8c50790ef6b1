package obs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func testRecord(seq int64) RunRecord {
	return RunRecord{
		ID:          "run-" + string(rune('0'+seq%10)),
		Seq:         seq,
		StartUnixNS: 1000 * seq,
		Source:      "daemon",
		Kind:        "synthesize",
		Topology:    "folded-cascode",
		Outcome:     "ok",
		DurationNS:  42,
		Converged:   true,
		LayoutCalls: 3,
		Spans: []SpanRecord{
			{ID: 1, Name: "request", DurationNS: 42, Attrs: map[string]string{"kind": "synthesize"}},
			{ID: 2, Parent: 1, Name: "synthesize", DurationNS: 40},
		},
		Iterations: []Iteration{{Call: 1, DeltaF: -1, OutCapF: 101.5e-15}},
	}
}

func TestLedgerAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := OpenLedger(path, LedgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLedger(path, LedgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	hist := l2.History()
	if len(hist) != 5 {
		t.Fatalf("replayed %d records, want 5", len(hist))
	}
	if hist[0].Seq != 1 || hist[4].Seq != 5 {
		t.Fatalf("replay order: first seq %d, last seq %d", hist[0].Seq, hist[4].Seq)
	}
	if l2.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d, want 5", l2.LastSeq())
	}
	got := hist[2]
	want := testRecord(3)
	if got.Topology != want.Topology || len(got.Spans) != 2 || len(got.Iterations) != 1 ||
		got.Spans[0].Attrs["kind"] != "synthesize" || got.Iterations[0].OutCapF != want.Iterations[0].OutCapF {
		t.Fatalf("replayed record differs: %+v", got)
	}
}

// TestLedgerRotation: crossing MaxBytes swaps the active file to
// <path>.1 and replay still sees both generations, newest last.
func TestLedgerRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	line, err := EncodeRunRecord(testRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	// Room for about three records per generation.
	l, err := OpenLedger(path, LedgerOptions{MaxBytes: int64(3*len(line)) + 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("rotated generation missing: %v", err)
	}

	l2, err := OpenLedger(path, LedgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	hist := l2.History()
	if len(hist) < 4 {
		t.Fatalf("replay after rotation = %d records, want the last two generations", len(hist))
	}
	if last := hist[len(hist)-1].Seq; last != 10 {
		t.Fatalf("newest replayed seq = %d, want 10", last)
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Seq != hist[i-1].Seq+1 {
			t.Fatalf("replay not contiguous at %d: %d then %d", i, hist[i-1].Seq, hist[i].Seq)
		}
	}
}

// TestLedgerFailedRotationRecovers: a rotation whose rename fails (here
// <path>.1 is a non-empty directory) must not strand the ledger on a
// closed handle. Appends keep failing only with the rotation error while
// the obstruction stands; once it is gone, the next Append rotates and
// succeeds, and every accepted record is readable.
func TestLedgerFailedRotationRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	line, err := EncodeRunRecord(testRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	l, err := OpenLedger(path, LedgerOptions{MaxBytes: int64(2*len(line)) + 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := os.MkdirAll(filepath.Join(path+".1", "block"), 0o755); err != nil {
		t.Fatal(err)
	}

	var accepted []int64
	failed := 0
	for seq := int64(1); seq <= 8; seq++ {
		err := l.Append(testRecord(seq))
		if errors.Is(err, os.ErrClosed) {
			t.Fatalf("append %d with <path>.1 blocked: %v", seq, err)
		}
		if err != nil {
			failed++
			continue
		}
		accepted = append(accepted, seq)
	}
	if failed == 0 {
		t.Fatal("no append reported the blocked rotation")
	}

	if err := os.RemoveAll(path + ".1"); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(9)); err != nil {
		t.Fatalf("append after the block was removed: %v", err)
	}
	accepted = append(accepted, 9)
	if st, err := os.Stat(path + ".1"); err != nil || !st.Mode().IsRegular() {
		t.Fatalf("rotated generation after recovery: %v, %v", st, err)
	}

	var got []int64
	for _, r := range ReadLedger(path, 0) {
		got = append(got, r.Seq)
	}
	if !slices.Equal(got, accepted) {
		t.Fatalf("ReadLedger seqs = %v, want the accepted %v", got, accepted)
	}
}

// TestLedgerCorruptTail: a truncated final line (torn write at crash)
// is skipped on replay, not fatal, and appending continues.
func TestLedgerCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := OpenLedger(path, LedgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		l.Append(testRecord(i))
	}
	l.Close()

	// Tear the last record mid-line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-25], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLedger(path, LedgerOptions{})
	if err != nil {
		t.Fatalf("open over corrupt tail: %v", err)
	}
	defer l2.Close()
	hist := l2.History()
	if len(hist) != 2 {
		t.Fatalf("replayed %d records over a torn tail, want 2", len(hist))
	}
	if err := l2.Append(testRecord(4)); err != nil {
		t.Fatalf("append after torn tail: %v", err)
	}
}

// TestLedgerBoundedReplay: MaxReplay keeps only the newest records.
func TestLedgerBoundedReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := OpenLedger(path, LedgerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		l.Append(testRecord(i))
	}
	l.Close()
	l2, err := OpenLedger(path, LedgerOptions{MaxReplay: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	hist := l2.History()
	if len(hist) != 5 || hist[0].Seq != 16 || hist[4].Seq != 20 {
		t.Fatalf("bounded replay = %d records (first %d), want the newest 5",
			len(hist), hist[0].Seq)
	}
}

func TestLedgerNilSafety(t *testing.T) {
	var l *Ledger
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if h := l.History(); h != nil {
		t.Fatalf("nil ledger history = %v", h)
	}
	if s := l.LastSeq(); s != 0 {
		t.Fatalf("nil ledger LastSeq = %d", s)
	}
}

// TestDecodeRunRecordsSkipsJunk: undecodable lines are dropped, valid
// ones around them survive.
func TestDecodeRunRecordsSkipsJunk(t *testing.T) {
	a, _ := EncodeRunRecord(testRecord(1))
	b, _ := EncodeRunRecord(testRecord(2))
	var buf bytes.Buffer
	buf.Write(a)
	buf.WriteString("{\"id\": \"torn\n")
	buf.WriteString("not json at all\n")
	buf.WriteString("[1,2,3]\n")
	buf.WriteString("{}\n")
	buf.Write(b)
	got := DecodeRunRecords(buf.Bytes(), 0)
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("decoded %d records: %+v", len(got), got)
	}
}
