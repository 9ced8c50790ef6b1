// `loas replay` is the ledger-driven load generator: it reads a JSONL
// run ledger recorded by loasd -ledger and re-issues the original
// requests against a live daemon, reporting throughput, latency
// percentiles, cache behaviour and byte-identity of the responses
// against the recorded results. Records that `loas synth -ledger`
// appends carry no request, so replay skips them.

package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"loas/internal/replay"
)

func runReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	ledger := fs.String("ledger", "loas-runs.jsonl", "JSONL run ledger to replay (reads the rotated .1 generation too)")
	addr := fs.String("addr", "http://127.0.0.1:8086", "loasd base URL")
	conc := fs.Int("c", 1, "concurrent in-flight requests")
	rate := fs.Float64("rate", 0, "dispatch rate in requests/second (0 = as fast as workers drain)")
	n := fs.Int("n", 0, "replay only the first N replayable items (0 = all)")
	kind := fs.String("kind", "", "replay only this kind (synthesize|table1|mc|batch|explore|layout.svg)")
	children := fs.Bool("children", false, "also replay child runs (batch items, explore probes); off by default since parents re-issue them")
	timeout := fs.Duration("timeout", 0, "per-request timeout (default 5m)")
	asJSON := fs.Bool("json", false, "emit the replay.Report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}

	items, err := replay.Load(*ledger, *children)
	if err != nil {
		return err
	}
	if *kind != "" {
		kept := items[:0]
		for _, it := range items {
			if it.Kind == *kind {
				kept = append(kept, it)
			}
		}
		items = kept
		if len(items) == 0 {
			return fmt.Errorf("no replayable %q runs in %s", *kind, *ledger)
		}
	}
	if *n > 0 && *n < len(items) {
		items = items[:*n]
	}

	if !*asJSON {
		fmt.Fprintf(out, "replaying %d requests from %s against %s (c=%d", len(items), *ledger, *addr, *conc)
		if *rate > 0 {
			fmt.Fprintf(out, ", rate=%g/s", *rate)
		}
		fmt.Fprintln(out, ")")
	}
	rep, err := replay.Run(context.Background(), replay.Config{
		BaseURL:     *addr,
		Concurrency: *conc,
		Rate:        *rate,
		Timeout:     *timeout,
	}, items)
	if err != nil {
		return err
	}
	if *asJSON {
		err = writeJSON(out, rep)
	} else {
		_, err = io.WriteString(out, rep.Text())
	}
	if err != nil {
		return err
	}
	// Checked-Matched, not len(Mismatches): the detail list is capped.
	if rep.Checked > rep.Matched {
		return fmt.Errorf("%d of %d checked responses differ from the recorded results", rep.Checked-rep.Matched, rep.Checked)
	}
	return nil
}
