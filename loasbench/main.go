// Command loasbench is the loas performance benchmark. It drives the
// engine in-process through its public entry points — core.Synthesize,
// mc.RunOffset and the daemon's serve.Server handler — on one of three
// seeded workloads, checks every output outside the timed region, and
// prints the machine stamp, every op's latency, the failures grouped by
// phase and cause, a digest of all op outputs and, as the last line,
// one JSON result object.
//
//	loasbench --workload synth-cold|mc-offset|serve-hot --seed N --seconds S --trace 0|1
//
// The op list is generated from the seed and the run length before the
// clock starts, so two runs with the same arguments do the same work.
// With --trace 0 the result carries the end-to-end metrics of an
// untraced timed phase. With --trace 1 the same op list runs untraced
// and then traced, and the result carries the per-layer metrics; the
// spans are written to .bench_build/loasbench/ when the run ends.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many complete set-ups each run performs; setup_s
// reports their median so one slow set-up does not move the metric.
const setupRepeats = 3

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// outDir receives the span file and the daemon's temporary ledger.
	outDir string
}

// workload is one benchmark workload: a seeded op list over a set of op
// classes, and how to set it up.
type workload struct {
	name string
	// tailPct is the percentile reported as op_tail_ms, chosen so that
	// at least ten successful ops lie beyond it and it falls inside the
	// slowest op class.
	tailPct float64
	// setup generates the op list and performs one complete set-up.
	setup func(cfg config) (instance, error)
}

// instance is a set-up workload, ready to run its op list.
type instance interface {
	// classes names the op classes that phase.class indexes.
	classes() []string
	// timed runs the op list untraced. Output checks that are cheap run
	// between ops with the clock stopped; the rest run in check.
	timed() *phase
	// check runs the output checks left out of the timed phase.
	check(p *phase)
	// traced runs the op list again with every layer call timed and
	// returns the traced phase plus the per-layer metrics it measured.
	// It also completes the checks of the untraced phase, so a traced
	// run skips check.
	traced(tr *tracer, untraced *phase) (*phase, map[string]float64)
	// invariant reports a property of the whole run that failed (the
	// empty string when all hold).
	invariant() string
	close()
}

// failure names why an op did not count as successful: the phase it
// failed in and the cause. wrong marks an output that disagrees with its
// reference (the serial MC reduction, the primed response), which makes
// the run incorrect; an op that returned an error or whose layout failed
// a quality check (convergence, DRC) is only a failed op.
type failure struct {
	phase, cause string
	wrong        bool
}

// phase is one pass over the op list.
type phase struct {
	class []uint8 // op class per op
	latNS []int64 // latency per op
	fails map[int]failure
	// out is a digest of each op's normalized output. A workload whose
	// outputs are all known in advance leaves it nil and sets sum, the
	// digest over the whole op list, instead.
	out [][sha256.Size]byte
	sum string

	wall      time.Duration
	cpu       time.Duration
	allocB    uint64
	heapLiveB uint64
}

func newPhase(n int) *phase {
	return &phase{
		class: make([]uint8, n),
		latNS: make([]int64, n),
		fails: map[int]failure{},
		out:   make([][sha256.Size]byte, n),
	}
}

func (p *phase) ok() int { return len(p.latNS) - len(p.fails) }

// okLatencies returns the latencies of the successful ops, optionally
// restricted to one class (class < 0 means all), sorted.
func (p *phase) okLatencies(class int) []float64 {
	var out []float64
	for i, ns := range p.latNS {
		if _, bad := p.fails[i]; bad || (class >= 0 && int(p.class[i]) != class) {
			continue
		}
		out = append(out, float64(ns))
	}
	sort.Float64s(out)
	return out
}

// digest hashes every op's output in op order.
func (p *phase) digest() string {
	if p.out == nil {
		return p.sum
	}
	h := sha256.New()
	for _, o := range p.out {
		h.Write(o[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted values by
// linear interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// meter is a snapshot of the process's wall clock, CPU time and
// cumulative heap allocation.
type meter struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func readMeter() meter {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return meter{at: time.Now(), cpu: cpu, alloc: heapAllocs()}
}

// addTo accumulates the interval since m into p and returns its wall
// time.
func (m meter) addTo(p *phase) time.Duration {
	now := readMeter()
	wall := now.at.Sub(m.at)
	p.wall += wall
	p.cpu += now.cpu - m.cpu
	p.allocB += now.alloc - m.alloc
	return wall
}

// heapAllocs is the cumulative count of bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapLive forces a collection and returns the live heap it marked.
func heapLive() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd computes the eight end-to-end metrics of an untraced phase.
func endToEnd(p *phase, tailPct float64, setupS float64) map[string]metric {
	ok := float64(p.ok())
	lat := p.okLatencies(-1)
	perOp := func(v float64) float64 {
		if ok == 0 {
			return 0
		}
		return v / ok
	}
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"ops_per_s":       {ok / p.wall.Seconds(), "1/s"},
		"op_p50_ms":       {quantile(lat, 0.5) / 1e6, "ms"},
		"op_tail_ms":      {quantile(lat, tailPct/100) / 1e6, "ms"},
		"cpu_ms_per_op":   {perOp(float64(p.cpu) / 1e6), "ms"},
		"alloc_mb_per_op": {perOp(float64(p.allocB) / 1e6), "MB"},
		"heap_live_mb":    {float64(p.heapLiveB) / 1e6, "MB"},
		"ok_ratio":        {ok / float64(len(p.latNS)), "ratio"},
	}
}

// perLayerUnits lists every per-layer metric with its unit. A workload
// reports each one; a layer it does not exercise reads 0.
var perLayerUnits = map[string]string{
	"sizing.ms_per_op":          "ms",
	"sizing.alloc_mb_per_op":    "MB",
	"sizing.calls_per_op":       "count",
	"device.memo_hit_ratio":     "ratio",
	"layout.ms_per_op":          "ms",
	"layout.alloc_mb_per_op":    "MB",
	"core.self_ms_per_op":       "ms",
	"core.self_alloc_mb_per_op": "MB",
	"meas.verify_ms":            "ms",
	"meas.verify_alloc_mb":      "MB",
	"mc.ms_per_sample":          "ms",
	"mc.alloc_mb_per_sample":    "MB",
	"mc.builds_per_sample":      "count",
	"parallel.speedup":          "x",
	"serve.synthesize_hit_us":   "us",
	"serve.batch_hit_ms":        "ms",
	"serve.runs_read_us":        "us",
	"serve.alloc_kb_per_req":    "KB",
	"serve.cache_hit_ratio":     "ratio",
	"serve.backend_runs":        "count",
	"serve.prime_backend_runs":  "count",
	"obs.ledger_bytes_per_req":  "B",
	"obs.sse_frames_per_req":    "count",
	"bench.trace_overhead_pct":  "%",
}

var workloads = []workload{synthCold, mcOffset, serveHot}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(names, ", "))
}

func main() {
	mainStart := time.Now()
	procStart := mainStart
	if ns, err := strconv.ParseInt(os.Getenv("LOASBENCH_EXEC_NS"), 10, 64); err == nil {
		procStart = time.Unix(0, ns)
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "loasbench:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout, mainStart.Sub(procStart)); err != nil {
		fmt.Fprintln(os.Stderr, "loasbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("loasbench", flag.ContinueOnError)
	cfg := config{outDir: filepath.Join(".bench_build", "loasbench")}
	fs.StringVar(&cfg.workload, "workload", "", "synth-cold, mc-offset or serve-hot")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 20, "approximate length of the timed phase")
	trace := fs.Int("trace", 0, "1: also run the op list traced and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("--seconds must be at least 1, got %d", cfg.seconds)
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	cfg.trace = *trace == 1
	if _, err := lookupWorkload(cfg.workload); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// run executes one benchmark run and prints its report to w; init is
// the time from process start to main.
func run(cfg config, w io.Writer, init time.Duration) error {
	wl, err := lookupWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	out := bufio.NewWriter(w)
	defer out.Flush()
	printStamp(out, cfg)
	if cfg.trace {
		registerTraced()
	}

	inst, setups, err := setUp(wl, cfg)
	if err != nil {
		return err
	}
	defer inst.close()
	setupS := init.Seconds() + median(setups)
	fmt.Fprintf(out, "setup: init %.4fs, set-ups %s s (median of %d)\n",
		init.Seconds(), joinFloats(setups, 4), len(setups))

	runtime.GC()
	p := inst.timed()
	var tp *phase
	var layer map[string]float64
	if cfg.trace {
		tr := newTracer()
		tp, layer = inst.traced(tr, p)
		if err := tr.write(filepath.Join(cfg.outDir,
			fmt.Sprintf("spans-%s-seed%d.csv", cfg.workload, cfg.seed))); err != nil {
			fmt.Fprintln(out, "spans: not written:", err)
		}
		fmt.Fprintf(out, "spans: %d recorded, %d dropped\n", len(tr.spans), tr.dropped)
	} else {
		inst.check(p)
	}

	res := result{Correct: true, Attempted: len(p.latNS), Failed: len(p.fails)}
	for _, ph := range []*phase{p, tp} {
		if ph == nil {
			continue
		}
		for _, f := range ph.fails {
			if f.wrong {
				res.Correct = false
			}
		}
	}
	if msg := inst.invariant(); msg != "" {
		fmt.Fprintln(out, "invariant failed:", msg)
		res.Correct = false
	}
	classes := inst.classes()
	printSamples(out, "untraced", p, classes)
	printFailures(out, p, classes)
	fmt.Fprintf(out, "digest: %s (%d ops)\n", p.digest(), len(p.latNS))

	if cfg.trace {
		printSamples(out, "traced", tp, classes)
		if d := tp.digest(); d != p.digest() {
			fmt.Fprintf(out, "traced digest: %s differs from the untraced run\n", d)
			res.Correct = false
		} else {
			fmt.Fprintln(out, "traced digest: identical")
		}
		base := quantile(p.okLatencies(-1), 0.5)
		if base > 0 {
			layer["bench.trace_overhead_pct"] = (quantile(tp.okLatencies(-1), 0.5)/base - 1) * 100
		}
		res.Metrics = map[string]metric{}
		for name, unit := range perLayerUnits {
			res.Metrics[name] = metric{layer[name], unit}
		}
	} else {
		res.Metrics = endToEnd(p, wl.tailPct, setupS)
	}
	fmt.Fprintf(out, "op_tail_ms is p%g\n", wl.tailPct)
	printMetrics(out, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// setUp performs setupRepeats complete set-ups, keeps the last and
// returns the duration of each.
func setUp(wl workload, cfg config) (instance, []float64, error) {
	var durs []float64
	var inst instance
	for k := 0; k < setupRepeats; k++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		inst, err = wl.setup(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		durs = append(durs, time.Since(start).Seconds())
	}
	return inst, durs, nil
}

// printStamp prints what identifies the machine and the build, so runs
// from different machines are not compared by accident.
func printStamp(w io.Writer, cfg config) {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	fmt.Fprintf(w, "loasbench workload=%s seed=%d seconds=%d trace=%t\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "machine: cpu=%q nproc=%d gomaxprocs=%d go=%s vcs=%s dirty=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, dirty)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printSamples prints every op's latency in ms, one line per class, in
// op order; a failed op's latency is marked with a trailing "!".
func printSamples(w io.Writer, label string, p *phase, classes []string) {
	for c, name := range classes {
		var b strings.Builder
		n := 0
		for i, ns := range p.latNS {
			if int(p.class[i]) != c {
				continue
			}
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(float64(ns)/1e6, 'f', 4, 64))
			if _, bad := p.fails[i]; bad {
				b.WriteByte('!')
			}
			n++
		}
		fmt.Fprintf(w, "samples %s %s n=%d ms:%s\n", label, name, n, b.String())
	}
}

// printFailures prints the failed ops grouped by phase and cause.
func printFailures(w io.Writer, p *phase, classes []string) {
	type group struct {
		f   failure
		ops []int
	}
	groups := map[string]*group{}
	for i, f := range p.fails {
		key := f.phase + "\x00" + f.cause
		g := groups[key]
		if g == nil {
			g = &group{f: f}
			groups[key] = g
		}
		g.ops = append(g.ops, i)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "failures: %d of %d ops\n", len(p.fails), len(p.latNS))
	for _, k := range keys {
		g := groups[k]
		sort.Ints(g.ops)
		var cls []string
		for _, i := range g.ops {
			cls = append(cls, fmt.Sprintf("%d:%s", i, classes[p.class[i]]))
		}
		kind := "error"
		switch {
		case g.f.wrong:
			kind = "wrong output"
		case g.f.phase == "check":
			kind = "failed check"
		}
		fmt.Fprintf(w, "  %s phase=%s count=%d cause=%q ops=%s\n",
			kind, g.f.phase, len(g.ops), g.f.cause, strings.Join(cls, ","))
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func joinFloats(v []float64, prec int) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(s, ",")
}
