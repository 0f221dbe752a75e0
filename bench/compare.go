package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// collection is a -collect result file: every run of every workload, with
// the machine they ran on.
type collection struct {
	Env       env                      `json:"env"`
	Seconds   float64                  `json:"seconds"`
	Trace     int                      `json:"trace"`
	Seeds     []uint64                 `json:"seeds"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	OS         string `json:"os"`
}

type workloadRuns struct {
	Correct   []bool                 `json:"correct"`
	Attempted []int                  `json:"attempted"`
	Failed    []int                  `json:"failed"`
	Metrics   map[string]*metricRuns `json:"metrics"`
}

// failedRuns counts the runs that failed a check.
func (wr *workloadRuns) failedRuns() int {
	n := 0
	for i, ok := range wr.Correct {
		if !ok || wr.Failed[i] > 0 {
			n++
		}
	}
	return n
}

// failedOfAttempted totals failed and attempted over the runs, as "F/A".
func (wr *workloadRuns) failedOfAttempted() string {
	var f, a int
	for i := range wr.Attempted {
		f, a = f+wr.Failed[i], a+wr.Attempted[i]
	}
	return fmt.Sprintf("%d/%d", f, a)
}

// metricRuns is one metric over a workload's runs: each run's value and
// their summary.
type metricRuns struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	summary
	Spread float64 `json:"spread"`
}

func currentEnv() env {
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// collectRuns is how many runs of each workload a collection holds, with
// seeds seed, seed+1, ...: enough for quartiles with a run on each side.
const collectRuns = 10

// collect runs every workload collectRuns times, one child process per run,
// cycling through the workloads so that drift on the machine reaches each
// of them alike, and writes every result to path. A run that fails its
// checks is recorded too, but makes collect return an error once the file
// is written.
func collect(path string, seed uint64, seconds float64, trace int, traceFile string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	col := collection{Env: currentEnv(), Seconds: seconds, Trace: trace, Workloads: make(map[string]*workloadRuns)}
	var failed []string
	for i := 0; i < collectRuns; i++ {
		s := seed + uint64(i)
		col.Seeds = append(col.Seeds, s)
		for _, w := range workloads {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-trace-file", traceFile)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			runErr := cmd.Run()
			res, err := lastResult(out.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %v (run: %v)", w.name, s, err, runErr)
			}
			fmt.Fprintf(os.Stderr, "bench: %s seed %d: correct=%v attempted=%d failed=%d\n", w.name, s, res.Correct, res.Attempted, res.Failed)
			if runErr != nil || !res.Correct || res.Failed > 0 {
				failed = append(failed, fmt.Sprintf("%s seed %d (%v)", w.name, s, runErr))
			}
			wr := col.Workloads[w.name]
			if wr == nil {
				wr = &workloadRuns{Metrics: make(map[string]*metricRuns)}
				col.Workloads[w.name] = wr
			}
			wr.Correct = append(wr.Correct, res.Correct)
			wr.Attempted = append(wr.Attempted, res.Attempted)
			wr.Failed = append(wr.Failed, res.Failed)
			for name, v := range res.Metrics {
				mr := wr.Metrics[name]
				if mr == nil {
					mr = &metricRuns{Unit: v.Unit}
					wr.Metrics[name] = mr
				}
				mr.Values = append(mr.Values, v.Value)
			}
		}
	}
	for _, wr := range col.Workloads {
		for _, mr := range wr.Metrics {
			mr.summary = summarize(mr.Values)
			mr.Spread = mr.summary.spread()
		}
	}
	b, err := json.MarshalIndent(col, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d runs failed: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("no result line: %v", err)
	}
	return res, nil
}

// Verdicts of a comparison.
const (
	better      = "better"
	worse       = "worse"
	withinBound = "within-bound"
	unresolved  = "unresolved"
)

// verdict judges new runs of a metric against old ones, run i of each side
// having run the same seed. An exact metric is worse when any run falls
// behind the old run of its seed, better when none does and some leads, and
// within the bound when all are equal. For the others, a metric whose old
// runs spread wider than its bound cannot show a change and is unresolved,
// unless every new run beats every old run. Otherwise the new median is
// worse when it falls behind the old by more than the bound, better when it
// leads by more than the old runs' inter-quartile distance, and within the
// bound in between.
func verdict(m metricDef, old, new []float64) string {
	sign := 1.0 // positive gain means better
	if m.Better == "lower" {
		sign = -1
	}
	if exactMetrics[m.Name] {
		v := withinBound
		for i := range old {
			switch gain := sign * (new[i] - old[i]); {
			case gain < 0:
				return worse
			case gain > 0:
				v = better
			}
		}
		return v
	}
	so, sn := summarize(old), summarize(new)
	gain := sign * (sn.Median - so.Median)
	if so.spread() > m.Bound {
		if allBeat(old, new, sign) {
			return better
		}
		return unresolved
	}
	switch {
	case -gain > m.Bound*math.Abs(so.Median):
		return worse
	case gain > 0 && gain > so.Q3-so.Q1:
		return better
	default:
		return withinBound
	}
}

// allBeat reports whether every new value beats every old value.
func allBeat(old, new []float64, sign float64) bool {
	for _, o := range old {
		for _, n := range new {
			if sign*(n-o) <= 0 {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, for every workload the two files share, the failed
// and attempted totals of each side, then for every end-to-end metric both
// medians, the change and the verdict. It reports whether the new file is
// worse: a metric got worse, or a new run failed its checks. Both files must
// have run the same seeds.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	var files [2]collection
	for i, path := range []string{oldPath, newPath} {
		b, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return false, fmt.Errorf("%s: %v", path, err)
		}
	}
	old, cur := files[0], files[1]
	if !slices.Equal(old.Seeds, cur.Seeds) {
		return false, fmt.Errorf("the files ran different seeds, %v and %v", old.Seeds, cur.Seeds)
	}
	fmt.Fprintf(w, "old: %s, %d CPUs, %s; new: %s, %d CPUs, %s\n", old.Env.CPU, old.Env.NumCPU, old.Env.Go, cur.Env.CPU, cur.Env.NumCPU, cur.Env.Go)
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %6s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	anyWorse := false
	for _, wl := range workloads {
		ow, nw := old.Workloads[wl.name], cur.Workloads[wl.name]
		if ow == nil || nw == nil {
			continue
		}
		v := withinBound
		if nw.failedRuns() > 0 {
			v = worse
			anyWorse = true
		}
		fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %6s  %s\n", wl.name, "failed", ow.failedOfAttempted(), nw.failedOfAttempted(), "", "0", v)
		for _, m := range endToEnd {
			om, nm := ow.Metrics[m.Name], nw.Metrics[m.Name]
			if om == nil || nm == nil {
				continue
			}
			v := verdict(m, om.Values, nm.Values)
			anyWorse = anyWorse || v == worse
			so, sn := summarize(om.Values), summarize(nm.Values)
			change := math.NaN()
			if so.Median != 0 {
				change = (sn.Median - so.Median) / math.Abs(so.Median)
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %+8.2f%% %5.0f%%  %s\n", wl.name, m.Name, so.Median, sn.Median, 100*change, 100*m.Bound, v)
		}
	}
	return anyWorse, nil
}
