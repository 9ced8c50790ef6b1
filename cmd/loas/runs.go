// Run-history subcommands: `loas runs`, `loas show` and `loas tail`
// are the CLI face of the daemon's run ledger — list recent runs,
// render one run's span tree, and follow the live /v1/events stream.

package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"loas/internal/obs"
	"loas/internal/serve"
)

// daemonGet fetches one daemon endpoint and decodes the JSON payload.
func daemonGet(base, path string, dst any) error {
	resp, err := http.Get(strings.TrimRight(base, "/") + path)
	return decodeReply(resp, err, base, path, dst)
}

// decodeReply decodes a daemon reply's JSON payload into dst, folding a
// failed round trip and non-200 responses (which carry {"error": ...}
// bodies) into a readable error.
func decodeReply(resp *http.Response, err error, base, path string, dst any) error {
	if err != nil {
		return fmt.Errorf("is loasd running at %s? %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("loasd: %s", e.Error)
		}
		return fmt.Errorf("loasd: %s returned status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// runRuns lists the daemon's recent runs (GET /v1/runs) as a table.
func runRuns(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("runs", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8086", "loasd base URL")
	topology := fs.String("topology", "", "only runs of this topology")
	kind := fs.String("kind", "", "only runs of this kind (synthesize|table1|mc|layout.svg|batch|explore)")
	outcome := fs.String("outcome", "", "only runs with this outcome (ok|cache-hit|dedup|error)")
	parent := fs.String("parent", "", "only children of this batch/explore run ID")
	converged := fs.String("converged", "", "only converged (true) or unconverged (false) runs")
	minDur := fs.Duration("min-duration", 0, "only runs at least this long (e.g. 150ms)")
	limit := fs.Int("limit", 20, "maximum rows")
	asJSON := fs.Bool("json", false, "emit the RunsReport as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q := url.Values{}
	for k, v := range map[string]string{
		"topology": *topology, "kind": *kind, "outcome": *outcome,
		"converged": *converged, "parent": *parent,
	} {
		if v != "" {
			q.Set(k, v)
		}
	}
	if *minDur > 0 {
		q.Set("min_duration", minDur.String())
	}
	q.Set("limit", fmt.Sprint(*limit))

	var rep serve.RunsReport
	if err := daemonGet(*addr, "/v1/runs?"+q.Encode(), &rep); err != nil {
		return err
	}
	if *asJSON {
		return writeJSON(out, rep)
	}
	fmt.Fprintf(out, "%d runs retained, %d shown (newest first):\n", rep.Total, len(rep.Runs))
	fmt.Fprintf(out, "  %-12s %-11s %-16s %-10s %-5s %5s %12s\n",
		"ID", "KIND", "TOPOLOGY", "OUTCOME", "CONV", "ITERS", "DURATION")
	for _, r := range rep.Runs {
		conv := "-"
		if r.Converged {
			conv = "yes"
		}
		fmt.Fprintf(out, "  %-12s %-11s %-16s %-10s %-5s %5d %12s\n",
			r.ID, r.Kind, r.Topology, r.Outcome, conv, r.Iterations,
			time.Duration(r.DurationNS).Round(time.Microsecond))
	}
	return nil
}

// runShow renders one run (GET /v1/runs/{id}): header, indented span
// tree, and the convergence table when the run recorded iterations.
func runShow(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8086", "loasd base URL")
	asJSON := fs.Bool("json", false, "emit the full obs.RunRecord as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: loas show [-addr URL] <run-id>")
	}
	id := fs.Arg(0)
	var rec obs.RunRecord
	if err := daemonGet(*addr, "/v1/runs/"+url.PathEscape(id), &rec); err != nil {
		return err
	}
	if *asJSON {
		return writeJSON(out, rec)
	}
	fmt.Fprintf(out, "%s  %s  %s", rec.ID, rec.Kind, rec.Outcome)
	if rec.Topology != "" {
		fmt.Fprintf(out, "  topology=%s", rec.Topology)
	}
	if rec.Case != 0 {
		fmt.Fprintf(out, "  case=%d", rec.Case)
	}
	fmt.Fprintf(out, "  %s (%s)\n", time.Duration(rec.DurationNS).Round(time.Microsecond),
		time.Unix(0, rec.StartUnixNS).Format(time.RFC3339))
	if rec.Error != "" {
		fmt.Fprintf(out, "error: %s\n", rec.Error)
	}
	if rec.Parent != "" {
		fmt.Fprintf(out, "parent: %s (loas runs -parent %s lists the siblings)\n", rec.Parent, rec.Parent)
	}
	if rec.CacheKey != "" {
		fmt.Fprintf(out, "cache key: %s\n", rec.CacheKey)
	}
	if len(rec.Spans) > 0 {
		fmt.Fprintln(out, "\nspan tree:")
		io.WriteString(out, obs.SpanTreeText(rec.Spans))
	}
	if len(rec.Iterations) > 0 {
		fmt.Fprintln(out, "\nconvergence trace:")
		io.WriteString(out, obs.ConvergenceTable(rec.Iterations))
	}
	return nil
}

// Tail reconnect pacing: after a stream drop the client retries with
// exponential backoff, reset to the floor once events flow again.
// tailSleep is swapped out by tests.
const (
	tailBackoffFloor = 500 * time.Millisecond
	tailBackoffCap   = 30 * time.Second
)

var tailSleep = time.Sleep

// runTail follows the daemon's live run stream (GET /v1/events) and
// prints one line per lifecycle event. A dropped stream — daemon
// restart, idle timeout, proxy hiccup — is reconnected with exponential
// backoff rather than ending the tail; only a failure to connect at all
// on the first attempt is fatal. With -n, the tail exits after that
// many events across all connections.
func runTail(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8086", "loasd base URL")
	n := fs.Int("n", 0, "exit after this many events (0 = follow forever)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimRight(*addr, "/")
	fmt.Fprintf(out, "tailing %s/v1/events\n", base)

	seen := 0
	connectedOnce := false
	backoff := tailBackoffFloor
	for {
		got, connected, err := tailOnce(base, out, *n, &seen)
		if *n > 0 && seen >= *n {
			return nil
		}
		if err != nil && !connectedOnce && !connected {
			// Never reached the stream: loasd isn't there — fail fast
			// instead of backing off against nothing.
			return err
		}
		connectedOnce = true
		if got > 0 {
			backoff = tailBackoffFloor
		}
		if err != nil {
			fmt.Fprintf(out, "stream lost (%v), reconnecting in %s\n", err, backoff)
		} else {
			fmt.Fprintf(out, "stream closed, reconnecting in %s\n", backoff)
		}
		tailSleep(backoff)
		if backoff *= 2; backoff > tailBackoffCap {
			backoff = tailBackoffCap
		}
	}
}

// tailOnce holds one /v1/events connection until it drops (nil error)
// or fails (connect refusal, non-200, read error), printing events as
// they arrive and counting them into *seen. It returns how many events
// this connection delivered and whether the stream was reached at all.
func tailOnce(base string, out io.Writer, n int, seen *int) (got int, connected bool, err error) {
	resp, err := http.Get(base + "/v1/events")
	if err != nil {
		return 0, false, fmt.Errorf("is loasd running at %s? %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false, fmt.Errorf("loasd: /v1/events returned status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event != "":
			printEvent(out, event, strings.TrimPrefix(line, "data: "))
			event = ""
			got++
			*seen++
			if n > 0 && *seen >= n {
				return got, true, nil
			}
		}
	}
	return got, true, sc.Err()
}

// printEvent renders one SSE payload as a single log line.
func printEvent(out io.Writer, event, data string) {
	switch event {
	case "run-start":
		var v struct {
			ID       string `json:"id"`
			Kind     string `json:"kind"`
			Topology string `json:"topology"`
			Case     int    `json:"case"`
		}
		if json.Unmarshal([]byte(data), &v) != nil {
			break
		}
		fmt.Fprintf(out, "%s  start  %s", v.ID, v.Kind)
		if v.Topology != "" {
			fmt.Fprintf(out, " topology=%s", v.Topology)
		}
		if v.Case != 0 {
			fmt.Fprintf(out, " case=%d", v.Case)
		}
		fmt.Fprintln(out)
		return
	case "iteration":
		var v struct {
			RunID string  `json:"run_id"`
			Call  int     `json:"call"`
			Delta float64 `json:"delta_f"`
			Folds int     `json:"folds"`
		}
		if json.Unmarshal([]byte(data), &v) != nil {
			break
		}
		delta := "first"
		if v.Delta >= 0 {
			delta = fmt.Sprintf("Δ %.2f fF", v.Delta*1e15)
		}
		fmt.Fprintf(out, "%s  iter   call %d (%s, %d folds)\n", v.RunID, v.Call, delta, v.Folds)
		return
	case "run-end":
		var v struct {
			ID          string `json:"id"`
			Outcome     string `json:"outcome"`
			DurationNS  int64  `json:"duration_ns"`
			Converged   bool   `json:"converged"`
			LayoutCalls int    `json:"layout_calls"`
			Error       string `json:"error"`
		}
		if json.Unmarshal([]byte(data), &v) != nil {
			break
		}
		fmt.Fprintf(out, "%s  end    %s in %s", v.ID, v.Outcome,
			time.Duration(v.DurationNS).Round(time.Microsecond))
		if v.LayoutCalls > 0 {
			fmt.Fprintf(out, " (%d layout calls, converged=%v)", v.LayoutCalls, v.Converged)
		}
		if v.Error != "" {
			fmt.Fprintf(out, " error=%q", v.Error)
		}
		fmt.Fprintln(out)
		return
	}
	// Unknown or undecodable event: print it raw rather than dropping it.
	fmt.Fprintf(out, "%s %s\n", event, data)
}
