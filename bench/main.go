// Command bench is the repository's one benchmark. It hosts internal/server
// in this process and drives it with server.Client sessions over loopback TCP
// in a closed loop, through session, lockmgr, engine.Guard, kernel, pagestore
// and filestore fsync, on memory and on file-backed stores; a last workload
// drives the engine directly and times restart recovery. Every repeat ends
// with a crash, a recovery and an audit of every page against the commits the
// sessions saw acknowledged. See README.md beside this file.
//
// Usage:
//
//	go run ./bench --workload NAME --seed N --seconds S --trace 0|1
//	go run ./bench [-trace 1] [-out FILE]       all five workloads, one set
//	go run ./bench -compare A.json B.json       two sets against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/server"
)

// The method is fixed here, not on the command line, so that every recorded
// number was taken the same way.
const (
	benchArch = "wal-1stream" // dbserver's default and the paper's recommended design

	sessions    = 4                      // concurrent TCP sessions, see README "Sessions"
	repeats     = 12                     // fresh engines per TCP workload, median reported
	warmup      = 250 * time.Millisecond // discarded before every slice
	restartTxns = 30000                  // crash-restart: transfers per round
	minRounds   = 3
	archTxns    = 300 // traced run: crash-restart round per architecture
)

type options struct {
	seed    int64
	seconds float64
	dir     string
}

// runUntraced measures one workload with nothing attached but the counting
// meters, and returns each end-to-end metric's value per repeat.
func runUntraced(w workload, opt options) (map[string][]float64, int64, error) {
	perRepeat := map[string][]float64{}
	var attempted int64
	add := func(r *repeatResult) {
		for name, v := range endToEndOf(r) {
			perRepeat[name] = append(perRepeat[name], v)
		}
		attempted += r.commits
	}
	cfg := repeatConfig{w: w, arch: benchArch, dir: opt.dir, clients: sessions, warmup: warmup}
	if w.tcp {
		cfg.slice = time.Duration(opt.seconds / repeats * float64(time.Second))
		for rep := 0; rep < repeats; rep++ {
			cfg.seed = opt.seed + int64(rep)*100
			r, err := runRepeat(cfg)
			if err != nil {
				return nil, attempted, err
			}
			add(r)
			runtime.GC()
		}
		return perRepeat, attempted, nil
	}
	// In-process rounds of a fixed count, as many as the time allows.
	cfg.txns = restartTxns
	var spent float64
	for rep := 0; rep < minRounds || spent < opt.seconds; rep++ {
		cfg.seed = opt.seed + int64(rep)*100
		r, err := runRepeat(cfg)
		if err != nil {
			return nil, attempted, err
		}
		add(r)
		spent += r.setupS + r.windowS + r.recoverMs/1000
		runtime.GC()
	}
	return perRepeat, attempted, nil
}

// runTraced measures one workload's layers: an untraced reference slice, a
// traced slice of twice the length, one short file-backed pass over all seven
// architectures and a probe of the device under dir.
func runTraced(w workload, opt options) (map[string]float64, int64, error) {
	cfg := repeatConfig{w: w, arch: benchArch, dir: opt.dir, seed: opt.seed, clients: sessions, warmup: warmup}
	if w.tcp {
		cfg.slice = time.Duration(opt.seconds / 6 * float64(time.Second))
	} else {
		cfg.txns = restartTxns
	}
	ref, err := runRepeat(cfg)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	cfg.traced = true
	cfg.slice *= 2
	tr, err := runRepeat(cfg)
	if err != nil {
		return nil, 0, err
	}
	out := layersOf(tr, w.tcp)
	refRate := ratio(float64(ref.commits), ref.windowS)
	out["trace.overhead_share"] = 1 - ratio(ratio(float64(tr.commits), tr.windowS), refRate)
	attempted := ref.commits + tr.commits
	if err := writeTrace(filepath.Join(opt.dir, "trace-"+w.name+".jsonl"), tr.spans, tr.t1); err != nil {
		return nil, attempted, err
	}
	tr.spans = nil
	runtime.GC()

	// The paper's comparison across architectures, on files so that fsyncs
	// and bytes are counted: a crash-restart round and a durable-commit slice.
	restart, _ := workloadByName("crash-restart")
	restart.file = true
	durable, _ := workloadByName("durable-commit")
	for _, arch := range server.Architectures() {
		round, err := runRepeat(repeatConfig{w: restart, arch: arch, dir: opt.dir, seed: opt.seed, txns: archTxns})
		if err != nil {
			return nil, attempted, err
		}
		slice, err := runRepeat(repeatConfig{w: durable, arch: arch, dir: opt.dir, seed: opt.seed, clients: sessions,
			warmup: 100 * time.Millisecond, slice: time.Duration(opt.seconds / 30 * float64(time.Second))})
		if err != nil {
			return nil, attempted, err
		}
		attempted += round.commits + slice.commits
		n := float64(round.commits)
		out["arch."+arch+".txn_us"] = ratio(sumUs(round.lat), n)
		out["arch."+arch+".sync_per_commit"] = ratio(float64(round.counts.Syncs), n)
		out["arch."+arch+".bytes_per_commit"] = ratio(float64(round.counts.FileBytes), n)
		out["arch."+arch+".recover_ms"] = round.recoverMs
		out["arch."+arch+".durable_txn_per_s"] = ratio(float64(slice.commits), slice.windowS)
	}

	if out["device.fsync_us_p50"], err = probeFsync(opt.dir); err != nil {
		return nil, attempted, err
	}
	return out, attempted, checkNames(perLayer, out)
}

// probeFsync times 200 writes of 4 KiB, each followed by an fsync, under dir:
// what the device beneath the file-backed workloads charges. Informational.
func probeFsync(dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.CreateTemp(dir, "probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	samples := make([]int64, 0, 200)
	for i := 0; i < cap(samples); i++ {
		start := time.Now()
		if _, err := f.WriteAt(buf, int64(i)*int64(len(buf))); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		samples = append(samples, int64(time.Since(start)))
	}
	return quantile(sortedUs(samples), 0.50), nil
}

// metricValue is one metric in the line the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setMetric is one metric of one workload in a full set: the median over the
// repeats with their quartiles and range beside it, and the bound it is held to.
type setMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

type setWorkload struct {
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]setMetric `json:"metrics"`
}

// resultSet is what a run over all workloads writes and -compare reads.
type resultSet struct {
	Host      map[string]any         `json:"host"`
	Workloads map[string]setWorkload `json:"workloads"`
}

func hostInfo(opt options) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"clients":    sessions,
		"arch":       benchArch,
		"repeats":    repeats,
		"warmup_s":   warmup.Seconds(),
		"seconds":    opt.seconds,
		"seed":       opt.seed,
		"dir":        opt.dir,
		"dir_fs":     fsType(opt.dir),
	}
}

// fsType names the filesystem holding dir, from /proc/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

func summarize(def metricDef, values []float64) setMetric {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return setMetric{Value: median(s), Unit: def.unit, Better: def.better, Bound: def.bound,
		Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// runWorkload runs one workload, traced or not, and returns its metrics.
func runWorkload(w workload, opt options, traced bool) (setWorkload, error) {
	sw := setWorkload{Metrics: map[string]setMetric{}}
	if traced {
		values, attempted, err := runTraced(w, opt)
		sw.Attempted = attempted
		if err != nil {
			return sw, err
		}
		for _, def := range perLayer {
			sw.Metrics[def.name] = summarize(def, []float64{values[def.name]})
		}
		return sw, nil
	}
	perRepeat, attempted, err := runUntraced(w, opt)
	sw.Attempted = attempted
	if err != nil {
		return sw, err
	}
	for _, def := range endToEnd {
		sw.Metrics[def.name] = summarize(def, perRepeat[def.name])
	}
	return sw, nil
}

func printWorkload(name string, sw setWorkload, defs []metricDef) {
	fmt.Printf("%s: %d transactions attempted, %d failed\n", name, sw.Attempted, sw.Failed)
	for _, def := range defs {
		m := sw.Metrics[def.name]
		fmt.Printf("  %-36s %14.4f %-6s (quartiles %.4f %.4f, range %.4f %.4f, n=%d)\n", def.name, m.Value, m.Unit, m.Q1, m.Q3, m.Min, m.Max, m.N)
	}
}

func main() {
	name := flag.String("workload", "", "run this one workload and end with the driver's result line; empty runs all five as one set")
	seed := flag.Int64("seed", 1985, "generator seed; session w of repeat r uses seed+100r+w")
	seconds := flag.Float64("seconds", 12, "measured seconds per workload, split over the repeats")
	trace := flag.Int("trace", 0, "1: the traced run and the per-layer metrics; 0: the end-to-end metrics")
	dir := flag.String("dir", filepath.Join("bench", "out"), "directory for the file-backed stores and the trace files")
	out := flag.String("out", "", "all-workloads run: write the set to this file (default <dir>/result.json)")
	compare := flag.Bool("compare", false, "compare two result sets named as arguments against their bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds, dir: *dir}
	traced := *trace == 1
	defs := endToEnd
	if traced {
		defs = perLayer
	}

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		sw, err := runWorkload(w, opt, traced)
		res := result{Correct: err == nil, Attempted: sw.Attempted, Metrics: map[string]metricValue{}}
		if err != nil {
			// A failed audit or a hard error fails the run; the line still says so.
			fmt.Fprintln(os.Stderr, "bench:", err)
			res.Failed = 1
			if res.Attempted < 1 {
				res.Attempted = 1
			}
		} else {
			printWorkload(w.name, sw, defs)
			for _, def := range defs {
				res.Metrics[def.name] = metricValue{sw.Metrics[def.name].Value, def.unit}
			}
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if err != nil {
			os.Exit(1)
		}
		return
	}

	set := resultSet{Host: hostInfo(opt), Workloads: map[string]setWorkload{}}
	for _, w := range workloads {
		sw, err := runWorkload(w, opt, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printWorkload(w.name, sw, endToEnd)
		if traced {
			layers, err := runWorkload(w, opt, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			printWorkload(w.name+" (traced)", layers, perLayer)
			for k, v := range layers.Metrics {
				sw.Metrics[k] = v
			}
		}
		set.Workloads[w.name] = sw
	}
	path := *out
	if path == "" {
		path = filepath.Join(opt.dir, "result.json")
	}
	blob, err := json.MarshalIndent(set, "", "  ")
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println("bench: wrote", path)
}
