// Command vinoperf is the repository's benchmark. It drives one workload
// through the program's public functions for a fixed host-time window,
// checks every output, and prints the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run) as one JSON object on the last
// line of standard output. README.md in this directory describes the
// workloads, the metrics and how they relate.
//
// Build and run it from the repository root with run.sh:
//
//	bash benchmark/run.sh --workload chaos-crash --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// workloads maps each workload name to the function that runs it, in
// the order the README lists them.
var workloads = []struct {
	name string
	run  func(*bench) error
}{
	{"chaos-crash", runChaos},
	{"dispatch", runDispatch},
	{"fleet", runFleet},
	{"campaign", runCampaign},
}

// A run sets up setupBatches × setupBatch times. Each batch is timed as
// one sample, divided by setupBatch; setup_s is the median batch. One
// set-up takes well under a millisecond, shorter than a scheduler tick,
// and Linux brings other threads' CPU time up to date only at ticks, so
// timing set-ups one by one measured mostly the clock.
const (
	setupBatches = 151
	setupBatch   = 8
)

// outDir is where the benchmark writes everything it keeps: results,
// span summaries, CPU profiles and the simulated-statistics store. It is
// relative to the repository root the benchmark runs from.
const outDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("vinoperf", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: chaos-crash, dispatch, fleet or campaign")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 20, "host seconds of measured work")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run (per-layer metrics), 0 the untraced run (end-to-end metrics)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var drive func(*bench) error
	for _, w := range workloads {
		if w.name == *workload {
			drive = w.run
		}
	}
	if drive == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "vinoperf: need --workload chaos-crash|dispatch|fleet|campaign, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintf(os.Stderr, "vinoperf: run from the repository root: %v\n", err)
		return 2
	}

	b := newBench(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	stopHeap, err := b.sampleHeap()
	if err != nil {
		fmt.Fprintf(os.Stderr, "vinoperf: %v\n", err)
		return 1
	}
	err = drive(b)
	stopHeap()
	if err == nil {
		err = b.checkIdentityStore()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vinoperf: %s: %v\n", *workload, err)
		return 1
	}
	if err := b.report(stdout); err != nil {
		fmt.Fprintf(os.Stderr, "vinoperf: %s: %v\n", *workload, err)
		return 1
	}
	return 0
}

// outcome is what one closed-loop operation reports.
type outcome struct {
	units     float64 // work items completed: chaos runs, dispatch ops, fleet arrivals, campaign runs+replays
	attempted int     // operations attempted, for the result's attempted/failed
	failed    int     // of those, operations that failed a check
	ok, of    float64 // success_ratio numerator and denominator
	ident     string  // simulated-statistics line; "" when this op closes none
}

// bench is one benchmark run: its settings, the measured samples, and
// the metrics it reports.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	tr       *tracer
	tail     float64 // percentile reported as op_ms_tail
	// perUnit makes an operation's latency sample its host time divided
	// by the units of work it completed.
	perUnit bool
	// wallPerOp times each operation on the wall clock instead of the
	// process CPU clock; see the dispatch workload for why.
	wallPerOp bool
	// inputs, when set, is the number of distinct inputs a run cycles
	// through: operation i runs input i mod inputs. See loop.
	inputs int

	// Host time is measured on two clocks: wall time, and the CPU time
	// of the whole process (every thread, garbage collection included),
	// which leaves out time the hypervisor gave to other guests. The
	// end-to-end metrics use CPU time, except where wallPerOp is set;
	// wall time also goes to the result file.
	setupWall, setupCPU []float64 // seconds per set-up, one sample per batch
	// ms per operation, untraced ops only, kept off the Go heap. opCPU
	// stays empty under wallPerOp.
	opCPU, opWall []float64

	untracedUnits, tracedUnits float64
	tracedOps                  int      // operations in the traced half
	untracedTime, tracedTime   hostTime // host time of each measured phase
	busyProcs                  float64  // Go processors busy on average, untraced phase
	attempted, failed          int
	ok, of                     float64
	idents                     []string

	wrong  []string           // failed correctness checks; any makes correct false
	named  []namedMetric      // the same results under the workload's own names
	layers map[string]float64 // per-layer metrics, traced run only
	cpu    map[string]int64   // CPU ns per module over the traced half
	cpuNS  int64

	peakHeap float64 // bytes
}

// stamp is a point on both host clocks.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), processCPU()} }

// hostTime is the host time between two stamps.
type hostTime struct{ wall, cpu time.Duration }

func (s stamp) since() hostTime {
	return hostTime{time.Since(s.wall), processCPU() - s.cpu}
}

type namedMetric struct {
	name, unit string
	value      float64
}

func newBench(workload string, seed int64, window time.Duration, traced bool) *bench {
	return &bench{
		workload: workload,
		seed:     seed,
		window:   window,
		traced:   traced,
		tr:       newTracer(traced),
		tail:     0.90,
		layers:   make(map[string]float64),
	}
}

// subSeed derives the seed of operation i from the workload seed
// (splitmix64 finalizer), so every operation's input is fixed by
// (seed, i) alone.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) & 0x7FFFFFFFFFFFFFFF)
}

// wrongf records a failed correctness check.
func (b *bench) wrongf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.wrong) < 64 {
		b.wrong = append(b.wrong, msg)
	}
}

// timeSetup runs setup setupBatches × setupBatch times and records the
// host time per set-up of each batch. Each batch starts from a collected
// heap, so a collection the previous one left due does not land in its
// time; collections the batch itself causes do.
func (b *bench) timeSetup(setup func() error) error {
	for r := 0; r < setupBatches; r++ {
		runtime.GC()
		t0 := now()
		for j := 0; j < setupBatch; j++ {
			if err := setup(); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		d := t0.since()
		b.setupWall = append(b.setupWall, d.wall.Seconds()/setupBatch)
		b.setupCPU = append(b.setupCPU, d.cpu.Seconds()/setupBatch)
	}
	return nil
}

// loop runs op in a closed loop with a single client until the window
// ends. The untraced run measures the whole window. The traced run
// measures its first half untraced, for the tracing overhead, and its
// second half with spans on and the CPU profile recording; onTrace runs
// at that switch so a workload can snapshot its counters.
//
// With b.inputs set, op is called with i mod b.inputs, and the run goes
// on past the window until every input has run once. Only that first
// pass counts in attempted, failed and success_ratio, and records the
// simulated statistics; every later pass must reproduce them exactly.
// So the result's failure counts depend on the seed alone, not on how
// many operations the host fitted in the window.
func (b *bench) loop(op func(i int) (outcome, error), onTrace func()) error {
	var err error
	if b.opCPU, err = newSamples(); err != nil {
		return err
	}
	if b.opWall, err = newSamples(); err != nil {
		return err
	}
	measured := b.window
	if b.traced {
		measured = b.window / 2
	}
	tracing := b.tr.on
	b.tr.on = false
	i := 0
	phase := func(traced, last bool, d time.Duration) (units float64, ops int, elapsed hostTime, err error) {
		start := now()
		for time.Since(start.wall) < d || (last && i < b.inputs) {
			input, first := i, true
			if b.inputs > 0 {
				input, first = i%b.inputs, i < b.inputs
			}
			var cpu0 time.Duration
			if !b.wallPerOp {
				cpu0 = processCPU()
			}
			wall0 := time.Now()
			o, err := op(input)
			if err != nil {
				return 0, 0, hostTime{}, fmt.Errorf("operation %d: %w", i, err)
			}
			if !traced {
				wall := time.Since(wall0)
				per := 1.0
				if b.perUnit && o.units > 0 {
					per = o.units
				}
				if len(b.opWall) == cap(b.opWall) {
					return 0, 0, hostTime{}, fmt.Errorf("more than %d operations in one run", maxSamples)
				}
				b.opWall = append(b.opWall, float64(wall)/1e6/per)
				if !b.wallPerOp {
					b.opCPU = append(b.opCPU, float64(processCPU()-cpu0)/1e6/per)
				}
			}
			i++
			ops++
			units += o.units
			if !first {
				if input >= len(b.idents) || o.ident != b.idents[input] {
					b.wrongf("input %d ran again and its simulated statistics differ: %q", input, o.ident)
				}
				continue
			}
			b.attempted += o.attempted
			b.failed += o.failed
			b.ok += o.ok
			b.of += o.of
			if o.ident != "" {
				b.idents = append(b.idents, o.ident)
			}
		}
		return units, ops, start.since(), nil
	}
	total0, idle0 := procTime()
	b.untracedUnits, _, b.untracedTime, err = phase(false, !b.traced, measured)
	total1, idle1 := procTime()
	b.busyProcs = float64(runtime.GOMAXPROCS(0)) * (1 - (idle1-idle0)/(total1-total0))
	if err != nil || !b.traced {
		return err
	}

	if onTrace != nil {
		onTrace()
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	b.tr.on = tracing
	b.tracedUnits, b.tracedOps, b.tracedTime, err = phase(true, true, b.window-measured)
	b.tr.on = false
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(outDir, "profiles"), 0o755); err != nil {
		return err
	}
	profPath := filepath.Join(outDir, "profiles", fmt.Sprintf("%s-seed%d.pprof", b.workload, b.seed))
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return err
	}
	b.cpu, b.cpuNS, err = cpuShares(prof.Bytes())
	return err
}

// procTime returns the Go runtime's count of processor time: the total
// (GOMAXPROCS × wall time) and the part no goroutine used, counting GC
// mark work that runs only on otherwise idle processors as unused. A
// processor whose thread the hypervisor stalls still counts as busy, so
// on a worker pool the busy share follows how many workers run, not the
// host's steal. The runtime updates these counts at the end of each
// collection, so procTime collects first.
func procTime() (total, idle float64) {
	runtime.GC()
	s := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() + s[2].Value.Float64()
}

// replayCheck re-runs the first operations on fresh state and requires
// their simulated statistics to equal the measured run's: same seed,
// same simulated behaviour, whatever the host did.
func (b *bench) replayCheck(replay func(n int) ([]string, error), n int) error {
	if n > len(b.idents) {
		n = len(b.idents)
	}
	if n == 0 {
		b.wrongf("no simulated statistics recorded")
		return nil
	}
	got, err := replay(n)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for i := 0; i < n; i++ {
		if i >= len(got) || got[i] != b.idents[i] {
			replayed := "<missing>"
			if i < len(got) {
				replayed = got[i]
			}
			b.wrongf("same-seed replay differs at record %d: %q vs %q", i, b.idents[i], replayed)
			return nil
		}
	}
	return nil
}

// checkIdentityStore compares this run's simulated statistics with every
// earlier run of the same benchmark binary at the same workload and
// seed, traced or not, over the records both have, and stores the
// longer record list for the next run.
func (b *bench) checkIdentityStore() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(outDir, "identity", hex.EncodeToString(sum[:6]), fmt.Sprintf("%s-seed%d.txt", b.workload, b.seed))
	var prev []string
	if data, err := os.ReadFile(path); err == nil {
		prev = strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for i := 0; i < len(prev) && i < len(b.idents); i++ {
		if prev[i] != b.idents[i] {
			b.wrongf("simulated statistics differ from an earlier run at seed %d, record %d: %q vs %q", b.seed, i, prev[i], b.idents[i])
			return nil
		}
	}
	if len(b.idents) <= len(prev) {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(strings.Join(b.idents, "\n")+"\n"), 0o644)
}

// sampleHeap samples the bytes in heap objects (live and not yet
// swept) every 5 ms until the returned stop function is called; stop
// waits for the sampler to exit and sets peakHeap to the samples' 95th
// percentile: the level the heap's sawtooth reaches, which one rare
// spike cannot move the way it moves the maximum.
func (b *bench) sampleHeap() (stop func(), err error) {
	samples, err := newSamples()
	if err != nil {
		return nil, err
	}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 && len(samples) < cap(samples) {
			samples = append(samples, float64(s[0].Value.Uint64()))
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		b.peakHeap = quantile(samples, 0.95)
	}, nil
}

// fingerprint describes the host a result was measured on.
func fingerprint() map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"goarch":     runtime.GOARCH,
		"goos":       runtime.GOOS,
		"cpu_model":  model,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
	}
}

// metric is one entry of the result's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd returns the untraced run's end-to-end metrics. Host times
// are process CPU time, except per-operation times under wallPerOp.
func (b *bench) endToEnd() map[string]metric {
	ratio := 0.0
	if b.of > 0 {
		ratio = b.ok / b.of
	}
	op := b.opCPU
	if b.wallPerOp {
		op = b.opWall
	}
	return map[string]metric{
		"setup_s":              {quantile(b.setupCPU, 0.5), "s"},
		"peak_heap_mb":         {b.peakHeap / (1 << 20), "MB"},
		"throughput_per_cpu_s": {b.untracedUnits / b.untracedTime.cpu.Seconds(), "1/s"},
		"busy_procs":           {b.busyProcs, "procs"},
		"op_ms_p50":            {quantile(op, 0.5), "ms"},
		"op_ms_tail":           {quantile(op, b.tail), "ms"},
		"success_ratio":        {ratio, "ratio"},
	}
}

// wallClock returns the same measurements on the wall clock, which
// includes time the host's other guests took from this one.
func (b *bench) wallClock() map[string]metric {
	return map[string]metric{
		"setup_wall_s":     {quantile(b.setupWall, 0.5), "s"},
		"cpu_per_wall":     {b.untracedTime.cpu.Seconds() / b.untracedTime.wall.Seconds(), "ratio"},
		"throughput_per_s": {b.untracedUnits / b.untracedTime.wall.Seconds(), "1/s"},
		"wall_ms_p50":      {quantile(b.opWall, 0.5), "ms"},
		"wall_ms_tail":     {quantile(b.opWall, b.tail), "ms"},
	}
}

// report prints the human-readable lines, writes the full result file
// and prints the JSON result as the last line.
func (b *bench) report(w io.Writer) error {
	fp := fingerprint()
	e2e := b.endToEnd()
	var out map[string]metric
	if b.traced {
		b.perLayer()
		out = make(map[string]metric, len(perLayerMetrics))
		for _, m := range perLayerMetrics {
			v, ok := b.layers[m.name]
			if !ok {
				v = -1
			}
			out[m.name] = metric{v, m.unit}
		}
	} else {
		out = e2e
	}

	mode := "untraced"
	if b.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "host: goarch=%v cpu=%q go=%v gomaxprocs=%v nproc=%v\n",
		fp["goarch"], fp["cpu_model"], fp["go_version"], fp["gomaxprocs"], fp["nproc"])
	fmt.Fprintf(w, "workload %s, seed %d, %s, %.1f s window: %d operations timed, %d attempted, %d failed\n",
		b.workload, b.seed, mode, b.window.Seconds(), len(b.opWall), b.attempted, b.failed)
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, out[name].Value, out[name].Unit)
	}
	if !b.traced {
		for _, m := range b.named {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	for _, msg := range b.wrong {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", msg)
	}

	named := make(map[string]metric, len(b.named))
	for _, m := range b.named {
		named[m.name] = metric{m.value, m.unit}
	}
	full := map[string]any{
		"workload":       b.workload,
		"seed":           b.seed,
		"traced":         b.traced,
		"window_s":       b.window.Seconds(),
		"host":           fp,
		"timed_ops":      len(b.opWall),
		"tail_quantile":  b.tail,
		"setup_cpu_s":    b.setupCPU,
		"wall_clock":     b.wallClock(),
		"metrics":        out,
		"end_to_end":     e2e,
		"named":          named,
		"check_failures": b.wrong,
		"sim_records":    len(b.idents),
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", b.workload, b.seed, map[bool]int{false: 0, true: 1}[b.traced])
	if err := writeJSON(filepath.Join(outDir, "results", base+".json"), full); err != nil {
		return err
	}
	if b.traced {
		if err := b.tr.write(filepath.Join(outDir, "spans", base+".json")); err != nil {
			return err
		}
	}

	line, err := json.Marshal(map[string]any{
		"correct":   len(b.wrong) == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
