//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// The two report tools read the JSONL files -out writes. summary gives the
// run-to-run spread of one file (how NOISE.md is made); compare applies
// the guide's rule to a parent file and a change file, so the A/A check
// and every later claim use the same arithmetic.

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

type seriesKey struct{ workload, metric string }

// series groups metric values by (workload, metric) in run order.
func series(recs []record) (map[seriesKey][]float64, []seriesKey) {
	out := map[seriesKey][]float64{}
	var order []seriesKey
	for _, r := range recs {
		names := make([]string, 0, len(r.Metrics))
		for name := range r.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			k := seriesKey{r.Workload, name}
			if _, ok := out[k]; !ok {
				order = append(order, k)
			}
			out[k] = append(out[k], r.Metrics[name].Value)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return workloadRank(order[i].workload) < workloadRank(order[j].workload) })
	return out, order
}

func workloadRank(name string) int {
	for i, s := range specs {
		if s.name == name {
			return i
		}
	}
	return len(specs)
}

// judged is what BENCHMARK.json says about one end-to-end metric.
type judged struct {
	higherBetter bool
	bound        float64 // 0 = none known
}

// loadJudged reads directions and bounds from BENCHMARK.json when it is in
// the working directory. Without it only ops_per_s counts as
// higher-is-better and no bound is shown.
func loadJudged() map[string]judged {
	out := map[string]judged{"ops_per_s": {higherBetter: true}}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return out
	}
	var doc struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(raw, &doc) != nil {
		return out
	}
	for _, m := range doc.EndToEnd {
		out[m.Name] = judged{higherBetter: m.Better == "higher", bound: m.Bound}
	}
	return out
}

// num prints four significant digits without an exponent.
func num(v float64) string {
	switch a := math.Abs(v); {
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

func summaryMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark summary runs.jsonl")
		return 2
	}
	recs, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	vals, order := series(recs)
	fmt.Println("| workload | metric | n | median | Q1 | Q3 | min | max | IQR/median | bound = max(5 %, 3 x IQR/median) |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	for _, k := range order {
		v := vals[k]
		q1, q2, q3 := quartiles(v)
		s := sortedCopy(v)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("| %s | %s | %d | %s | %s | %s | %s | %s | %.2f %% | %.1f %% |\n",
			k.workload, k.metric, len(v), num(q2), num(q1), num(q3), num(s[0]), num(s[len(s)-1]), spread*100, max(5, 3*spread*100))
	}
	return 0
}

// verdict applies the guide's rule to paired runs: the change differs only
// if it wins (or loses) at least nine tenths of the pairs, ties counting
// for neither, AND the medians differ by more than the parent's own
// inter-quartile distance. Everything else is unresolved.
func verdict(parent, change []float64, lower bool) (string, int, int) {
	n := min(len(parent), len(change))
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch {
		case change[i] == parent[i]:
		case (change[i] < parent[i]) == lower:
			wins++
		default:
			losses++
		}
	}
	q1, pm, q3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	beyond := cm-pm > q3-q1 || pm-cm > q3-q1
	switch {
	case n >= 10 && beyond && wins*10 >= n*9:
		return "better", wins, losses
	case n >= 10 && beyond && losses*10 >= n*9:
		return "worse", wins, losses
	}
	return "unresolved", wins, losses
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare parent.jsonl change.jsonl   (runs pair up in file order)")
		return 2
	}
	rules := loadJudged()
	var sides [2]map[seriesKey][]float64
	var order []seriesKey
	for i, path := range args {
		recs, err := loadRecords(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		sides[i], order = series(recs)
	}
	fmt.Println("| workload | metric | pairs | parent median | change median | change | parent IQR | wins/losses | verdict | within bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	for _, k := range order {
		p, c := sides[0][k], sides[1][k]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		rule := rules[k.metric] // a metric BENCHMARK.json does not list is lower-better, unbounded
		lower := !rule.higherBetter
		v, wins, losses := verdict(p, c, lower)
		q1, pm, q3 := quartiles(p)
		_, cm, _ := quartiles(c)
		change := 0.0
		if pm != 0 {
			change = (cm - pm) / pm
		}
		within := "-"
		if b := rule.bound; b > 0 && pm != 0 {
			worse := change
			if !lower {
				worse = -change
			}
			switch {
			case worse <= b && (q3-q1)/pm > b:
				within = "unresolved (spread > bound)"
			case worse <= b:
				within = "yes"
			default:
				within = "NO"
			}
		}
		fmt.Printf("| %s | %s | %d | %s | %s | %+.2f %% | %s | %d/%d | %s | %s |\n",
			k.workload, k.metric, min(len(p), len(c)), num(pm), num(cm), change*100, num(q3-q1), wins, losses, v, within)
	}
	return 0
}
