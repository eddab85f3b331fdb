package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/task"
	"repro/internal/taskrt"
	"repro/internal/workloads"
	"repro/internal/workloads/synth"
)

// figureIDs are the experiments paper-figs regenerates, one process each.
var figureIDs = []string{"fig12", "fig13"}

// sweepCores are the core counts of the sweep grid.
var sweepCores = []int{8, 32}

// more reports whether another repetition fits the measuring time: it
// must be expected to end within a tenth past it. A run always makes at
// least one repetition and never starts one after 150 s.
func (b *bench) more(start time.Time, reps []float64) bool {
	if len(reps) == 0 {
		return true
	}
	elapsed := time.Since(start)
	next := time.Duration(median(reps) * float64(time.Second))
	return elapsed < 150*time.Second && elapsed+next <= b.seconds+b.seconds/10
}

// paperFigs regenerates Figures 12 and 13 with cmd/experiments, one fresh
// process (and so one fresh in-memory store) per figure, and checks the
// tables against the reference rendering.
func (b *bench) paperFigs() (*report, error) {
	ref, err := os.ReadFile(b.refPath("paper_figs", "txt"))
	if err != nil {
		return nil, fmt.Errorf("reference tables: %w", err)
	}
	points, tasks, err := b.figureWork()
	if err != nil {
		return nil, err
	}

	rep := &report{}
	var walls, cpuTimes, rss, reps, setups []float64
	start := time.Now()
	for b.more(start, reps) {
		repStart := time.Now()
		for range b.size.launches {
			t := time.Now()
			if err := b.sut("experiments", "-list").Run(); err != nil {
				return nil, fmt.Errorf("experiments -list: %w", err)
			}
			setups = append(setups, time.Since(t).Seconds())
		}
		var out bytes.Buffer
		var wall, cpu, mb float64
		for _, id := range figureIDs {
			args := []string{"-experiment", id, "-workers", strconv.Itoa(cpus)}
			if len(b.size.benchmarks) > 0 {
				args = append(args, "-benchmarks", strings.Join(b.size.benchmarks, ","))
			}
			cmd := b.sut("experiments", args...)
			cmd.Stdout = &out
			cmd.Stderr = b.log
			// A figure is one long stretch of work, and a run rarely
			// holds more than one repetition, so the speed is read
			// several times at each end of it.
			b.speed.probeN(figureProbes)
			t := time.Now()
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("experiments %s: %w", id, err)
			}
			wall += time.Since(t).Seconds()
			c, m := usage(cmd.ProcessState)
			cpu += c
			mb = max(mb, m)
		}
		rep.Attempted += points
		if !bytes.Equal(out.Bytes(), ref) {
			rep.fail(points, "paper-figs tables differ from %s", b.refPath("paper_figs", "txt"))
		}
		walls = append(walls, wall)
		cpuTimes = append(cpuTimes, cpu)
		rss = append(rss, mb)
		reps = append(reps, time.Since(repStart).Seconds())
	}
	b.speed.probeN(figureProbes - 1) // setMetrics takes the last
	fmt.Fprintf(b.log, "tdmbench: paper-figs: %d points and %d tasks per repetition\n", points, tasks)
	b.setMetrics(rep, points, tasks, walls, cpuTimes, rss, setups)
	return rep, nil
}

// figureProbes is how many probes paper-figs takes before each figure and
// after the last.
const figureProbes = 4

// figureWork counts the distinct simulation points of each figure and the
// tasks of their programs. Each figure runs in its own process, so points
// shared between the two figures count once per figure.
func (b *bench) figureWork() (points, tasks int, err error) {
	opt := b.figOptions()
	base := figBase(opt)
	for _, id := range figureIDs {
		e, err := experiments.ByID(id)
		if err != nil {
			return 0, 0, err
		}
		jobs, err := experiments.JobsFor(opt, e)
		if err != nil {
			return 0, 0, err
		}
		seen := map[string]bool{}
		for _, j := range jobs {
			k := j.Key(base)
			if seen[k] {
				continue
			}
			seen[k] = true
			prog, err := program(j, j.Config(base))
			if err != nil {
				return 0, 0, err
			}
			points++
			tasks += prog.NumTasks()
		}
	}
	return points, tasks, nil
}

// figOptions are the experiment options of both paper-figs paths.
func (b *bench) figOptions() experiments.Options {
	opt := experiments.DefaultOptions()
	opt.Workers = cpus
	opt.Benchmarks = b.size.benchmarks
	return opt
}

// figBase is the base configuration the experiments' sweep engine uses for
// an option set, so job keys and results match the experiments' own.
func figBase(opt experiments.Options) core.Config {
	base := core.DefaultConfig(taskrt.Software)
	base.Machine = opt.Machine
	base.Power = opt.Power
	base.DMU = opt.DMU
	return base
}

// program generates a job's program exactly as runner.Local would.
func program(j runner.Job, cfg core.Config) (*task.Program, error) {
	if j.Program != nil {
		return j.Program, nil
	}
	wb, err := workloads.ByName(j.Benchmark)
	if err != nil {
		return nil, err
	}
	if j.Granularity == 0 {
		return wb.GenerateOptimal(cfg.Runtime.UsesDMU(), cfg.Machine), nil
	}
	return wb.Generate(j.Granularity, cfg.Machine), nil
}

// grid returns the sweep submission body and its number of points: every
// synth family at seeds derived from the benchmark seed, on all four
// runtime systems, at 8 and 32 cores.
func (b *bench) grid() ([]byte, int, error) {
	r := rand.New(rand.NewPCG(uint64(b.seed), 0x74646d))
	seen := map[int64]bool{}
	var seeds []int64
	for len(seeds) < b.size.seedsPerFamily {
		s := r.Int64N(1_000_000) + 1
		if !seen[s] {
			seen[s] = true
			seeds = append(seeds, s)
		}
	}
	var specs []string
	for _, f := range synth.FamilyNames() {
		for _, s := range seeds {
			specs = append(specs, fmt.Sprintf("synth:%s:seed=%d", f, s))
		}
	}
	var runtimes []string
	for _, k := range core.Runtimes() {
		runtimes = append(runtimes, string(k))
	}
	g := runner.Grid{Benchmarks: specs, Runtimes: core.Runtimes(), Cores: sweepCores}
	body, err := json.Marshal(map[string]any{"benchmarks": specs, "runtimes": runtimes, "cores": sweepCores})
	return body, g.Size(), err
}

// sweepCold repeatedly starts sweepd on a fresh store and streams the grid
// through it: every point simulates and persists.
func (b *bench) sweepCold() (*report, error) {
	body, points, err := b.grid()
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var ref map[string][]byte
	var walls, cpuTimes, rss, reps, setups []float64
	var tasks int
	start := time.Now()
	for i := 0; b.more(start, reps); i++ {
		repStart := time.Now()
		b.speed.probe()
		if err := b.setupProbes(&setups, filepath.Join(b.work, "cold-probe"), true); err != nil {
			return nil, err
		}
		dir := filepath.Join(b.work, fmt.Sprintf("cold-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		settle()
		b.speed.probe()
		d, err := b.startDaemon(dir)
		if err != nil {
			return nil, err
		}
		out, err := submit(d.client, d.url, body)
		cpu, mb := d.stop()
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		rep.Attempted += points
		checkRows(rep, out, points, ref)
		if ref == nil {
			ref = out.rows
		}
		tasks = out.tasks
		walls = append(walls, out.wall.Seconds())
		setups = append(setups, d.setup.Seconds())
		cpuTimes = append(cpuTimes, cpu)
		rss = append(rss, mb)
		reps = append(reps, time.Since(repStart).Seconds())
	}
	fmt.Fprintf(b.log, "tdmbench: sweep-cold: %d points and %d tasks per repetition\n", points, tasks)
	b.setMetrics(rep, points, tasks, walls, cpuTimes, rss, setups)
	return rep, nil
}

// warmRestarts is how many daemon restarts one sweep-warm repetition
// makes. One restart streams the grid twice in about 1.5 s on one CPU of
// a shared VM, short enough for a burst of host noise to dominate it.
const warmRestarts = 3

// sweepWarm populates a store with one cold sweep (set-up, not measured),
// then repeatedly restarts sweepd on it and submits the grid twice: the
// first pass is served from the disk tier, the second from memory. One
// repetition is warmRestarts such restarts.
func (b *bench) sweepWarm() (*report, error) {
	body, points, err := b.grid()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(b.work, "warm")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rep := &report{}
	d, err := b.startDaemon(dir)
	if err != nil {
		return nil, err
	}
	cold, err := submit(d.client, d.url, body)
	d.stop()
	if err != nil {
		return nil, err
	}
	rep.Attempted += points
	checkRows(rep, cold, points, nil)
	ref := cold.rows

	var walls, cpuTimes, rss, reps, setups []float64
	var tasks int
	start := time.Now()
	for b.more(start, reps) {
		repStart := time.Now()
		b.speed.probe()
		if err := b.setupProbes(&setups, dir, false); err != nil {
			return nil, err
		}
		var wall time.Duration
		var cpu, mb float64
		tasks = 0
		for range warmRestarts {
			settle()
			b.speed.probe()
			d, err := b.startDaemon(dir)
			if err != nil {
				return nil, err
			}
			disk, err := submit(d.client, d.url, body)
			var mem *sweepOut
			if err == nil {
				mem, err = submit(d.client, d.url, body)
			}
			c, m := d.stop()
			if err != nil {
				return nil, err
			}
			rep.Attempted += 2 * points
			checkRows(rep, disk, points, ref)
			checkRows(rep, mem, points, ref)
			tasks += disk.tasks + mem.tasks
			wall += disk.wall + mem.wall
			setups = append(setups, d.setup.Seconds())
			cpu += c
			mb = max(mb, m)
		}
		walls = append(walls, wall.Seconds())
		cpuTimes = append(cpuTimes, cpu)
		rss = append(rss, mb)
		reps = append(reps, time.Since(repStart).Seconds())
	}
	fmt.Fprintf(b.log, "tdmbench: sweep-warm: %d restarts x 2 x %d points per repetition\n", warmRestarts, points)
	b.setMetrics(rep, 2*warmRestarts*points, tasks, walls, cpuTimes, rss, setups)
	return rep, nil
}

// setMetrics sets the end-to-end metrics to the medians of a run's
// per-repetition samples, with times scaled from host seconds to reference
// seconds and rates per reference second (speed.go). The log keeps the
// host seconds. points and tasks are one repetition's work.
func (b *bench) setMetrics(rep *report, points, tasks int, walls, cpuTimes, rss, setups []float64) {
	b.speed.probe() // the speed after the last repetition
	scale := b.speed.scale()
	wall := median(walls) * scale
	rep.set("wall_s", wall, "s")
	rep.set("points_per_s", float64(points)/wall, "1/s")
	rep.set("sim_tasks_per_s", float64(tasks)/wall, "1/s")
	rep.set("cpu_s", median(cpuTimes)*scale, "s")
	rep.set("peak_rss_mb", median(rss), "MB")
	rep.set("setup_s", median(setups)*scale, "s")
	b.logSamples("host wall_s", walls)
	b.logSamples("host cpu_s", cpuTimes)
	b.logSamples("host setup_s", setups)
	b.logSamples("reference probe_s", b.speed.probes)
	fmt.Fprintf(b.log, "tdmbench: reference seconds per host second: %.6g\n", scale)
}

// logSamples logs the distribution behind a reported median, with the
// samples in the order they were taken.
func (b *bench) logSamples(name string, xs []float64) {
	fmt.Fprintf(b.log, "tdmbench: %s: n=%d median=%.6g min=%.6g max=%.6g in order=%.4g\n", name, len(xs), median(xs), slices.Min(xs), slices.Max(xs), xs)
}

// settle flushes the file system, so the timed work that follows does not
// pay for the writes and deletions that came before it. On a disk
// mounted with online discard, the journal commits and discards that a
// deleted store leaves behind otherwise land in the next sweep, and the
// same cold sweep took 3.9-4.4 s with its store on tmpfs but 5.5-5.8 s
// on that disk, varying from run to run.
func settle() { syscall.Sync() }

// setupProbes starts and stops sweepd launches times on the store
// directory and appends each set-up time. With fresh, every probe starts
// on an empty directory, like a sweep-cold repetition.
func (b *bench) setupProbes(setups *[]float64, dir string, fresh bool) error {
	for range b.size.launches {
		if fresh {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		d, err := b.startDaemon(dir)
		if err != nil {
			return err
		}
		d.stop()
		*setups = append(*setups, d.setup.Seconds())
	}
	if fresh {
		return os.RemoveAll(dir)
	}
	return nil
}

// sut returns a command running a binary of the system under test on
// cpus CPUs.
func (b *bench) sut(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(b.bin, name), args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cpus))
	// The process must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// usage returns a finished process's CPU time (user+system, seconds) and
// peak resident set (MB).
func usage(ps *os.ProcessState) (cpu, rssMB float64) {
	cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cpu, rssMB
}

// daemon is a running sweepd.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
	setup  time.Duration // process start until the first 200 from /healthz
}

// startDaemon launches sweepd on a store directory and waits until it
// answers /healthz. The client holds one connection.
func (b *bench) startDaemon(dir string) (*daemon, error) {
	addr := &addrWriter{found: make(chan string, 1)}
	cmd := b.sut("sweepd", "-addr", "127.0.0.1:0", "-store", dir, "-workers", strconv.Itoa(cpus))
	cmd.Stderr = addr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sweepd: %w", err)
	}
	d := &daemon{cmd: cmd, client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
	select {
	case a := <-addr.found:
		d.url = "http://" + a
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("sweepd did not report its address:\n%s", addr.text())
	}
	for {
		resp, err := d.client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 60*time.Second {
			d.kill()
			return nil, fmt.Errorf("sweepd never became healthy:\n%s", addr.text())
		}
	}
	d.setup = time.Since(start)
	return d, nil
}

// stop drains the daemon with SIGTERM, waits for it to exit and returns
// its CPU time and peak RSS.
func (d *daemon) stop() (cpu, rssMB float64) {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return usage(d.cmd.ProcessState)
	}
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	return usage(d.cmd.ProcessState)
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// addrWriter collects sweepd's log and reports the address from its
// "listening on" line.
type addrWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	sent  bool
	found chan string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		const marker = "listening on "
		if _, rest, ok := bytes.Cut(w.buf.Bytes(), []byte(marker)); ok {
			if line, _, ok := bytes.Cut(rest, []byte("\n")); ok {
				w.found <- string(line)
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *addrWriter) text() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// sweepOut is one streamed sweep as the client saw it.
type sweepOut struct {
	wall     time.Duration     // submit until the stream's end
	firstRow time.Duration     // submit until the first row
	bytes    int               // NDJSON bytes received
	lines    int               // rows received
	rows     map[string][]byte // result rows by point key
	errRows  int               // rows reporting an error or cancellation
	httpErr  int               // non-200 submissions
	tasks    int               // tasks of the settled points
	cycles   int64             // simulated cycles of the settled points
}

// submit posts a grid with ?stream=1 and reads the NDJSON stream to its
// end. Rows are parsed after the stream ends, outside the timed section.
func submit(c *http.Client, url string, body []byte) (*sweepOut, error) {
	out := &sweepOut{rows: map[string][]byte{}}
	start := time.Now()
	resp, err := c.Post(url+"/v1/sweeps?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("submit sweep: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		out.wall = time.Since(start)
		out.httpErr = 1
		fmt.Fprintf(os.Stderr, "tdmbench: sweep submission: HTTP %d: %s\n", resp.StatusCode, msg)
		return out, nil
	}
	var lines [][]byte
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if out.firstRow == 0 {
				out.firstRow = time.Since(start)
			}
			out.bytes += len(line)
			lines = append(lines, bytes.TrimRight(line, "\n"))
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("read sweep stream: %w", err)
		}
	}
	out.wall = time.Since(start)
	for _, line := range lines {
		var p struct {
			Row, Key, Error string
			Cancelled       bool
			Tasks           int
			Cycles          int64
		}
		if err := json.Unmarshal(line, &p); err != nil || p.Row != "" {
			out.errRows++
			continue
		}
		out.lines++
		if p.Error != "" || p.Cancelled {
			out.errRows++
		}
		out.rows[p.Key] = line
		out.tasks += p.Tasks
		out.cycles += p.Cycles
	}
	return out, nil
}

// checkRows counts the failed points of one streamed sweep: a refused
// submission fails every point; otherwise missing or extra rows, error rows
// and rows that differ from the reference rows for the same key fail.
func checkRows(rep *report, out *sweepOut, points int, ref map[string][]byte) {
	if out.httpErr > 0 {
		rep.fail(points, "sweep submission refused")
		return
	}
	bad := out.errRows
	if n := abs(points - out.lines); n > 0 {
		bad += n
		rep.fail(0, "sweep returned %d rows for %d points", out.lines, points)
	}
	if out.errRows > 0 {
		rep.fail(0, "sweep returned %d error rows", out.errRows)
	}
	if ref != nil {
		diff := 0
		for k, row := range out.rows {
			if !bytes.Equal(ref[k], row) {
				diff++
			}
		}
		if diff > 0 {
			bad += diff
			rep.fail(0, "%d sweep rows differ from the reference rows for the same key", diff)
		}
	}
	rep.Failed += min(bad, points)
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// refPath names a reference file of the benchmark's size.
func (b *bench) refPath(name, ext string) string {
	return filepath.Join(b.root, "tdmbench", "testdata", name+"_"+b.size.name+"."+ext)
}
