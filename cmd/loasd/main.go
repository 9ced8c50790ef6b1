// Command loasd serves the layout-oriented synthesis engine over HTTP:
// a content-addressed result cache, in-flight deduplication of
// identical requests, and a bounded synthesis job queue in front of the
// core loop. Observability rides along: Prometheus-format metrics at
// /metrics, per-request run records at /v1/runs (the X-Loas-Key
// response header finds a result's run: /v1/runs?key=<key>&outcome=ok),
// and pprof under /debug/pprof when started with -pprof. See
// internal/serve for the endpoint list and `loasd -h` for the flags.
//
// Quickstart:
//
//	loasd -addr 127.0.0.1:8086 &
//	curl -s -X POST http://127.0.0.1:8086/v1/table1 | head
//	curl -s http://127.0.0.1:8086/v1/topologies
//	curl -s http://127.0.0.1:8086/v1/layouts
//	curl -s http://127.0.0.1:8086/v1/synthesize -d '{"topology":"two-stage"}'
//	curl -s http://127.0.0.1:8086/v1/synthesize -d '{"topology":"two-stage","layout":"rows"}'
//	curl -s http://127.0.0.1:8086/v1/batch -d '{"items":[{"case":1},{"case":2},{"case":1}]}'
//	curl -s http://127.0.0.1:8086/v1/explore -d '{"axes":{"gbw":[4e7,6.5e7]},"case":1}'
//	curl -s 'http://127.0.0.1:8086/v1/runs?kind=batch'
//	curl -s "http://127.0.0.1:8086/v1/runs?outcome=ok&key=$KEY"   # KEY from X-Loas-Key
//	curl -s http://127.0.0.1:8086/stats
//	curl -s http://127.0.0.1:8086/metrics | grep loas_
package main

import (
	"fmt"
	"net/http"
	"os"

	"loas/internal/serve"
)

func main() {
	if err := serve.CLI(os.Args[1:], os.Stdout); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "loasd:", err)
		os.Exit(1)
	}
}
