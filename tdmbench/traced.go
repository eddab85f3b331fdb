package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dmu"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/swdep"
	"repro/internal/task"
	"repro/internal/taskrt"
)

// point is one simulation the traced run executed.
type point struct {
	cfg  core.Config
	prog *task.Program
	res  *core.Result
}

// tracedExec is the engine's executor in an in-process pass:
// runner.Local's work, split into a workloads.gen and a taskrt.run span
// under one runner.exec span.
type tracedExec struct {
	tr     *tracer
	base   core.Config
	parent atomic.Int64 // span the next executions belong to

	mu     sync.Mutex
	points []point
}

func (x *tracedExec) Execute(ctx context.Context, j runner.Job) (*core.Result, error) {
	exec := x.tr.begin("runner.exec", int(x.parent.Load()))
	defer x.tr.end(exec)
	cfg := j.Config(x.base)
	gen := x.tr.begin("workloads.gen", exec)
	prog, err := program(j, cfg)
	x.tr.end(gen)
	if err != nil {
		return nil, err
	}
	run := x.tr.begin("taskrt.run", exec)
	res, err := core.RunContext(ctx, prog, cfg)
	x.tr.end(run)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", j.Desc(), err)
	}
	x.mu.Lock()
	x.points = append(x.points, point{cfg: cfg, prog: prog, res: res})
	x.mu.Unlock()
	return res, nil
}

// tracedRun is what one in-process pass of a workload leaves for the layer
// replays and the metrics.
type tracedRun struct {
	exec     *tracedExec
	wall     time.Duration           // the figures, or the sweeps from submit to last row
	results  map[string]*core.Result // the store's contents by key
	counters map[string]float64      // the store's /metrics series
	sweeps   []*sweepOut
}

// traced drives the workload in process, alternating passes without and
// with spans, replays the first traced pass's points through each layer,
// and reports the per-layer metrics.
func (b *bench) traced(host map[string]any) (*report, error) {
	rep := &report{}
	pass := func(tr *tracer) (*tracedRun, error) { return b.tracedFigures(tr, rep) }
	if b.workload != "paper-figs" {
		sp, err := b.sweepPasses(rep)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(sp.dir)
		pass = sp.pass
	}
	// Pairs of passes, one without spans and one with, repeat while the
	// measuring time allows, and alternate which pass goes first. Both
	// kinds do the same work and differ only in the spans, so
	// trace.overhead_pct, which compares their medians, is the cost of the
	// spans plus the host's noise, not a change of harness.
	var (
		tr                  *tracer
		run                 *tracedRun
		plain, spans, pairs []float64
	)
	// A first pass, not timed, grows the heap, so that no timed pass pays
	// for it: on paper-figs that alone takes a fifth of a pass.
	if _, err := pass(nil); err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; b.more(start, pairs); i++ {
		pairStart := time.Now()
		for j := range 2 {
			var t *tracer
			if (i+j)%2 == 1 { // plain, traced, traced, plain, ...
				t = newTracer(fmt.Sprintf("%s-seed%d", b.workload, b.seed))
			}
			r, err := pass(t)
			if err != nil {
				return nil, err
			}
			if t == nil {
				plain = append(plain, r.wall.Seconds())
				continue
			}
			spans = append(spans, r.wall.Seconds())
			if run == nil {
				tr, run = t, r
			}
		}
		pairs = append(pairs, time.Since(pairStart).Seconds())
	}
	replay, err := replayLayers(tr, run.exec.points)
	if err != nil {
		return nil, err
	}
	// Only sweep-cold writes results; the other workloads' puts read 0.
	if b.workload == "sweep-cold" {
		dir := filepath.Join(b.work, "replay-store")
		defer os.RemoveAll(dir)
		if err := replayPuts(tr, dir, run.results); err != nil {
			return nil, err
		}
	}

	layers := tr.layers()
	counts := countPoints(run.exec.points)
	size, err := resultBytes(run.results)
	if err != nil {
		return nil, err
	}
	b.layerMetrics(rep, run, layers, counts, replay, size)
	traceWall, untracedWall := median(spans), median(plain)
	rep.set("trace.wall_s", traceWall, "s")
	rep.set("trace.untraced_wall_s", untracedWall, "s")
	rep.set("trace.overhead_pct", 100*(traceWall-untracedWall)/untracedWall, "%")
	b.logSamples("trace.wall_s", spans)
	b.logSamples("trace.untraced_wall_s", plain)
	if b.workload == "paper-figs" {
		b.checkCounts(rep, counts)
	}
	return rep, b.writeTrace(tr, host, layers, counts)
}

// tracedFigures regenerates the figures in process, with a fresh store per
// figure like the untraced run's one process per figure.
func (b *bench) tracedFigures(tr *tracer, rep *report) (*tracedRun, error) {
	opt := b.figOptions()
	base := figBase(opt)
	x := &tracedExec{tr: tr, base: base}
	reg := obs.NewRegistry()
	sm := runner.NewStoreMetrics(reg)
	run := &tracedRun{exec: x, results: map[string]*core.Result{}}
	var text bytes.Buffer
	for _, id := range figureIDs {
		e, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		jobs, err := experiments.JobsFor(opt, e)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		fig := tr.begin("experiments.figure", 0)
		open := tr.begin("runner.store_open", fig)
		opt.Cache = runner.NewStore()
		tr.end(open)
		opt.Cache.Metrics = sm
		// The experiments' own engine with the traced executor: same base
		// configuration, same store, same worker bound.
		eng := &runner.Engine{Base: base, Store: opt.Cache, Workers: opt.Workers, Exec: x}
		prewarm := tr.begin("experiments.prewarm", fig)
		x.parent.Store(int64(prewarm))
		_, err = eng.RunAllContext(context.Background(), jobs)
		tr.end(prewarm)
		if err != nil {
			return nil, err
		}
		assemble := tr.begin("experiments.assemble", fig)
		tables, err := e.Run(opt)
		tr.end(assemble)
		tr.end(fig)
		run.wall += time.Since(start)
		if err != nil {
			return nil, err
		}
		renderFigure(&text, e, tables)
		for _, k := range opt.Cache.Keys() {
			run.results[k], _ = opt.Cache.Get(k)
		}
	}
	ref, err := os.ReadFile(b.refPath("paper_figs", "txt"))
	if err != nil {
		return nil, fmt.Errorf("reference tables: %w", err)
	}
	if !bytes.Equal(text.Bytes(), ref) {
		rep.fail(len(x.points), "in-process paper-figs tables differ from %s", b.refPath("paper_figs", "txt"))
	}
	rep.Attempted += len(x.points)
	run.counters = scrapeHandler(obs.Handler(reg))
	return run, nil
}

// renderFigure prints an experiment's tables exactly as cmd/experiments does.
func renderFigure(w io.Writer, e experiments.Experiment, tables []*stats.Table) {
	fmt.Fprintf(w, "\n######## %s — %s\n\n", e.ID, e.Title)
	for _, t := range tables {
		fmt.Fprintln(w, t.String())
	}
}

// sweepPasses serves the grid from in-process sweep services over HTTP on
// a loopback port, one service per pass, all on one store directory.
type sweepPasses struct {
	b      *bench
	rep    *report
	body   []byte
	points int
	dir    string
	warm   bool
	// ref holds the rows every pass must stream, by key: the warm store's
	// population, or a cold workload's first pass.
	ref map[string][]byte
}

// sweepPasses prepares a sweep workload's passes. For sweep-warm it
// populates the store (set-up, not traced).
func (b *bench) sweepPasses(rep *report) (*sweepPasses, error) {
	body, points, err := b.grid()
	if err != nil {
		return nil, err
	}
	sp := &sweepPasses{b: b, rep: rep, body: body, points: points,
		dir: filepath.Join(b.work, "traced-store"), warm: b.workload == "sweep-warm"}
	if err := os.RemoveAll(sp.dir); err != nil {
		return nil, err
	}
	if !sp.warm {
		return sp, nil
	}
	st, err := runner.OpenStore(runner.StoreOptions{Dir: sp.dir})
	if err != nil {
		return nil, err
	}
	s, err := b.serve(&runner.Engine{Base: core.DefaultConfig(taskrt.Software), Store: st, Workers: cpus})
	if err != nil {
		return nil, err
	}
	out, err := submit(s.client, s.url, body)
	s.stop()
	if err != nil {
		return nil, err
	}
	rep.Attempted += points
	checkRows(rep, out, points, nil)
	sp.ref = out.rows
	return sp, nil
}

// pass opens the store (a fresh one for sweep-cold), serves it and
// submits the grid: once cold, or twice warm (disk tier, then memory).
func (sp *sweepPasses) pass(tr *tracer) (*tracedRun, error) {
	if !sp.warm {
		if err := os.RemoveAll(sp.dir); err != nil {
			return nil, err
		}
	}
	x := &tracedExec{tr: tr, base: core.DefaultConfig(taskrt.Software)}
	run := &tracedRun{exec: x, results: map[string]*core.Result{}}
	open := tr.begin("runner.store_open", 0)
	st, err := runner.OpenStore(runner.StoreOptions{Dir: sp.dir})
	tr.end(open)
	if err != nil {
		return nil, err
	}
	s, err := sp.b.serve(&runner.Engine{Base: x.base, Store: st, Workers: cpus, Exec: x})
	if err != nil {
		return nil, err
	}
	defer s.stop()
	passes := 1
	if sp.warm {
		passes = 2
	}
	for range passes {
		sw := tr.begin("service.sweep", 0)
		x.parent.Store(int64(sw))
		out, err := submit(s.client, s.url, sp.body)
		tr.end(sw)
		if err != nil {
			return nil, err
		}
		sp.rep.Attempted += sp.points
		checkRows(sp.rep, out, sp.points, sp.ref)
		if sp.ref == nil {
			sp.ref = out.rows
		}
		run.wall += out.wall
		run.sweeps = append(run.sweeps, out)
	}
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	run.counters = parseMetrics(resp.Body)
	resp.Body.Close()
	for _, out := range run.sweeps {
		for k := range out.rows {
			if res, ok := st.Get(k); ok {
				run.results[k] = res
			}
		}
	}
	return run, nil
}

// server is an in-process sweep service on a loopback port.
type server struct {
	url    string
	client *http.Client
	stop   func()
}

// serve starts a sweep service for the engine. stop drains it and waits
// for the HTTP server to return.
func (b *bench) serve(eng *runner.Engine) (*server, error) {
	srv := service.New(eng, cpus)
	srv.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		hs.Serve(ln)
		close(done)
	}()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	return &server{
		url:    "http://" + ln.Addr().String(),
		client: client,
		stop: func() {
			client.CloseIdleConnections()
			srv.Drain(nil)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			hs.Shutdown(ctx)
			<-done
		},
	}, nil
}

// replayCounts is the work the layer replays did.
type replayCounts struct {
	dmuOps, swdepEdges int
}

// replayLayers replays every executed point through the layers in
// isolation: a sim skeleton of its per-core task counts, its dependence
// stream through a standalone DMU or software tracker, and its tasks
// through its software scheduling policy.
func replayLayers(tr *tracer, points []point) (replayCounts, error) {
	root := tr.begin("bench.replay", 0)
	defer tr.end(root)
	var c replayCounts
	for _, p := range points {
		s := tr.begin("sim.skeleton", root)
		err := skeleton(p.res.ExecutedByCore)
		tr.end(s)
		if err != nil {
			return c, err
		}
		var n int
		if p.cfg.Runtime.UsesDMU() {
			s = tr.begin("dmu.replay", root)
			n, err = replayDMU(p.cfg.DMU, p.prog)
			tr.end(s)
			c.dmuOps += n
		} else {
			s = tr.begin("swdep.replay", root)
			n, err = replaySwdep(p.prog)
			tr.end(s)
			c.swdepEdges += n
		}
		if err != nil {
			return c, err
		}
		if p.cfg.Runtime.UsesSoftwareScheduler() {
			s = tr.begin("sched.replay", root)
			err = replaySched(p.cfg.Scheduler, p.cfg.Machine.Cores, p.prog)
			tr.end(s)
			if err != nil {
				return c, err
			}
		}
	}
	return c, nil
}

// skeleton runs one sim process per core, each waiting once per task that
// core executed: the event loop and process handoff without the model.
func skeleton(perCore []int) error {
	e := sim.NewEngine()
	for c, n := range perCore {
		e.Spawn("core"+strconv.Itoa(c), func(p *sim.Proc) {
			for range n {
				p.Wait(1)
			}
		})
	}
	_, err := e.Run()
	e.Shutdown()
	return err
}

// replayDMU drives a program's dependence stream through a standalone DMU,
// retiring ready tasks whenever a structure is full, and returns the
// number of DMU operations.
func replayDMU(cfg dmu.Config, prog *task.Program) (int, error) {
	unit := dmu.New(cfg)
	ops := 0
	retire := func() error {
		rt, _, ok := unit.GetReadyTask()
		ops++
		if !ok {
			return errors.New("dmu replay: structures full with an empty ready queue")
		}
		ops++
		_, err := unit.FinishTask(rt.DescAddr)
		return err
	}
	for _, s := range prog.Tasks() {
		d := 0x7000_0000 + uint64(s.ID)*320
		for !unit.CanCreateTask(d) {
			if err := retire(); err != nil {
				return ops, err
			}
		}
		ops++
		if _, err := unit.CreateTask(d); err != nil {
			return ops, err
		}
		for _, dep := range s.Deps {
			for !unit.CanAddDependence(d, dep.Addr, dep.Size, dep.Dir) {
				if err := retire(); err != nil {
					return ops, err
				}
			}
			ops++
			if _, err := unit.AddDependence(d, dep.Addr, dep.Size, dep.Dir); err != nil {
				return ops, err
			}
		}
		ops++
		if _, err := unit.SubmitTask(d); err != nil {
			return ops, err
		}
	}
	for !unit.Quiescent() {
		if err := retire(); err != nil {
			return ops, err
		}
	}
	return ops, nil
}

// replaySwdep creates every task of a program in the software dependence
// tracker, then finishes them in dependence order, and returns the number
// of graph edges it discovered.
func replaySwdep(prog *task.Program) (int, error) {
	t := swdep.NewTracker()
	var ready []task.ID
	for _, s := range prog.Tasks() {
		cr, err := t.CreateTask(s)
		if err != nil {
			return 0, err
		}
		if cr.Ready {
			ready = append(ready, s.ID)
		}
	}
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		fr, err := t.FinishTask(id)
		if err != nil {
			return 0, err
		}
		ready = append(ready, fr.NewlyReady...)
	}
	if !t.Quiescent() {
		return 0, errors.New("swdep replay: tasks left unfinished")
	}
	return t.EdgesCreated(), nil
}

// replaySched pushes every task of a program into the named policy's
// ready pool and pops them back round-robin over the cores.
func replaySched(policy string, cores int, prog *task.Program) error {
	s, err := sched.New(policy, cores)
	if err != nil {
		return err
	}
	specs := prog.Tasks()
	for i, spec := range specs {
		s.Push(&sched.ReadyTask{Spec: spec, Affinity: i % cores})
	}
	for i := range specs {
		if s.Pop(i%cores) == nil {
			return fmt.Errorf("sched replay: %s pool empty after %d of %d pops", policy, i, len(specs))
		}
	}
	return nil
}

// replayPuts puts every result into a fresh disk store, the write path a
// cold sweep takes for each point it computes.
func replayPuts(tr *tracer, dir string, results map[string]*core.Result) error {
	root := tr.begin("bench.store_replay", 0)
	defer tr.end(root)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := runner.OpenStore(runner.StoreOptions{Dir: dir})
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := tr.begin("runner.store_put", root)
		err := st.Put(k, results[k])
		tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// resultBytes is the size of the results' JSON encoding.
func resultBytes(results map[string]*core.Result) (int64, error) {
	var size int64
	for _, res := range results {
		data, err := json.Marshal(res)
		if err != nil {
			return 0, err
		}
		size += int64(len(data))
	}
	return size, nil
}

// simCounts are the simulated counts of the executed points. They depend
// only on the programs and configurations, so they repeat exactly.
type simCounts struct {
	DMUAccesses     uint64 `json:"dmu.accesses"`
	SchedOps        int    `json:"sched.ops"`
	HwschedSteals   uint64 `json:"hwsched.steals"`
	HwschedOverflow uint64 `json:"hwsched.overflows"`
	SimCycles       int64  `json:"taskrt.sim_cycles"`
	Tasks           int    `json:"workloads.tasks"`
	Waits           int    `json:"sim.waits"`
	Execs           int    `json:"runner.execs"`
}

func countPoints(points []point) simCounts {
	var c simCounts
	for _, p := range points {
		r := p.res
		c.DMUAccesses += r.DMUAccesses()
		c.SchedOps += r.SchedulerPushes + r.SchedulerPops
		if r.CarbonQueues != nil {
			c.HwschedSteals += r.CarbonQueues.Steals
			c.HwschedOverflow += r.CarbonQueues.Overflows
		}
		if r.HardwareQueue != nil {
			c.HwschedOverflow += r.HardwareQueue.Overflows
		}
		c.SimCycles += r.Cycles
		c.Tasks += p.prog.NumTasks()
		for _, n := range r.ExecutedByCore {
			c.Waits += n
		}
		c.Execs++
	}
	return c
}

// layerMetrics turns the spans and counts into the per-layer metrics.
func (b *bench) layerMetrics(rep *report, run *tracedRun, layers map[string]layerTime, c simCounts, replay replayCounts, resultBytes int64) {
	perOp := func(seconds float64, ops int) float64 {
		if ops == 0 {
			return 0
		}
		return seconds * 1e9 / float64(ops)
	}
	rep.set("sim.skeleton_s", layers["sim.skeleton"].Total, "s")
	rep.set("sim.waits", float64(c.Waits), "count")
	rep.set("sim.ns_per_wait", perOp(layers["sim.skeleton"].Total, c.Waits), "ns")
	rep.set("dmu.replay_s", layers["dmu.replay"].Total, "s")
	rep.set("dmu.ops", float64(replay.dmuOps), "count")
	rep.set("dmu.ns_per_op", perOp(layers["dmu.replay"].Total, replay.dmuOps), "ns")
	rep.set("dmu.accesses", float64(c.DMUAccesses), "count")
	rep.set("swdep.replay_s", layers["swdep.replay"].Total, "s")
	rep.set("swdep.edges", float64(replay.swdepEdges), "count")
	rep.set("sched.replay_s", layers["sched.replay"].Total, "s")
	rep.set("sched.ops", float64(c.SchedOps), "count")
	rep.set("hwsched.steals", float64(c.HwschedSteals), "count")
	rep.set("hwsched.overflows", float64(c.HwschedOverflow), "count")
	rep.set("taskrt.run_s", layers["taskrt.run"].Total, "s")
	rep.set("taskrt.ns_per_task", perOp(layers["taskrt.run"].Total, c.Tasks), "ns")
	rep.set("taskrt.sim_cycles", float64(c.SimCycles), "cycles")
	rep.set("workloads.gen_s", layers["workloads.gen"].Total, "s")
	rep.set("workloads.tasks", float64(c.Tasks), "count")
	rep.set("runner.execs", float64(layers["runner.exec"].Count), "count")
	rep.set("runner.exec_s", layers["runner.exec"].Total, "s")
	rep.set("runner.store_open_s", layers["runner.store_open"].Total, "s")
	rep.set("runner.store_put_s", layers["runner.store_put"].Total, "s")
	// Every lookup the workload's store answered from a tier, as the
	// store's own histogram timed it.
	rep.set("runner.store_get_s", run.counters["store_hit_seconds_sum"], "s")
	rep.set("runner.result_bytes", float64(resultBytes), "bytes")
	rep.set("runner.store_hits_mem", run.counters[`store_hits_total{source="mem"}`], "count")
	rep.set("runner.store_hits_disk", run.counters[`store_hits_total{source="disk"}`], "count")
	rep.set("runner.store_misses", run.counters["store_misses_total"], "count")
	rep.set("experiments.prewarm_s", layers["experiments.prewarm"].Total, "s")
	rep.set("experiments.assemble_s", layers["experiments.assemble"].Total, "s")
	var firstRow, ndjson, httpErrs float64
	for i, out := range run.sweeps {
		if i == 0 {
			firstRow = out.firstRow.Seconds()
		}
		ndjson += float64(out.bytes)
		httpErrs += float64(out.httpErr)
	}
	rep.set("service.first_row_s", firstRow, "s")
	rep.set("service.self_s", layers["service.sweep"].Self, "s")
	rep.set("service.ndjson_bytes", ndjson, "bytes")
	rep.set("service.http_errors", httpErrs, "count")

	// The rows the sweeps streamed carry the simulated cycles of the
	// points the traced run executed; the two must agree exactly.
	if b.workload == "sweep-cold" && len(run.sweeps) > 0 && run.sweeps[0].cycles != c.SimCycles {
		rep.fail(1, "streamed rows sum to %d simulated cycles, the executed points to %d", run.sweeps[0].cycles, c.SimCycles)
	}
}

// checkCounts compares paper-figs' simulated counts with the reference:
// a difference is a correctness failure, never noise.
func (b *bench) checkCounts(rep *report, got simCounts) {
	path := b.refPath("paper_figs_counts", "json")
	data, err := os.ReadFile(path)
	var want simCounts
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil {
		rep.fail(1, "reference counts: %v", err)
		return
	}
	if want != got {
		gj, _ := json.Marshal(got)
		rep.fail(1, "simulated counts differ from %s:\n got  %s\n want %s", path, gj, bytes.TrimSpace(data))
	}
}

// writeTrace writes the spans, the per-layer totals and the provenance
// block as JSON into the scratch directory.
func (b *bench) writeTrace(tr *tracer, host map[string]any, layers map[string]layerTime, counts simCounts) error {
	dir := filepath.Join(b.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{
		"run":    tr.run,
		"host":   host,
		"counts": counts,
		"layers": layers,
		"spans":  tr.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, tr.run+".json")
	fmt.Fprintf(b.log, "tdmbench: spans written to %s\n", path)
	return os.WriteFile(path, data, 0o644)
}

// scrapeHandler reads the Prometheus text an in-process handler serves.
func scrapeHandler(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseMetrics(rec.Body)
}

// parseMetrics maps each sample line "series value" of Prometheus text to
// its value.
func parseMetrics(r io.Reader) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
