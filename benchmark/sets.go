package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// setReport is what -sets prints last: every set's numbers (the baseline
// block kept in baseline.json) and whether the sets agree within the
// benchmark's own bounds.
type setReport struct {
	CalRefMs float64 `json:"cal_ref_ms"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	// Sets[i][workload][metric] is set i's value.
	Sets  []map[string]map[string]float64 `json:"sets"`
	Pass  bool                            `json:"pass"`
	Notes []string                        `json:"unresolved,omitempty"`
}

// runSets runs the whole suite o.sets times, untraced and traced, in
// alternating workload order (so a slow drift does not always hit the same
// workload), then compares every later set with the first: end-to-end
// metrics against max(bound × set 1, floor), exact counters for equality.
func runSets(o options) (result, error) {
	rep := setReport{CalRefMs: calRefMs, Seed: o.seed, Seconds: o.seconds, Pass: true}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for set := 0; set < o.sets; set++ {
		values := map[string]map[string]float64{}
		for i := range workloads {
			w := workloads[i]
			if set%2 == 1 {
				w = workloads[len(workloads)-1-i]
			}
			values[w.name] = map[string]float64{}
			for _, trace := range []string{"0", "1"} {
				fmt.Fprintf(os.Stderr, "set %d: %s (trace %s)\n", set+1, w.name, trace)
				res, err := runChild(w.name, o, trace, io.Discard)
				if err != nil {
					return result{}, err
				}
				for _, d := range allDefs() {
					if v, ok := res.Metrics[d.Name]; ok {
						values[w.name][d.Name] = v.Value
					}
				}
				all.Correct = all.Correct && res.Correct
				all.Attempted += res.Attempted
				all.Failed += res.Failed
			}
		}
		rep.Sets = append(rep.Sets, values)
	}

	first := rep.Sets[0]
	for set := 1; set < len(rep.Sets); set++ {
		for _, w := range workloads {
			a, b := first[w.name], rep.Sets[set][w.name]
			for _, d := range endToEndDefs {
				av, bv := a[d.Name], b[d.Name]
				allowed := math.Max(d.Bound*av, d.Floor)
				verdict := "PASS"
				switch {
				case !(av > 0) || !(bv > 0):
					// A missing or zero value would make every later
					// comparison against it pass or divide by nothing.
					verdict = "FAIL"
					rep.Pass = false
					rep.Notes = append(rep.Notes, fmt.Sprintf("%s %s: missing or 0 (set 1: %v, set %d: %v)", w.name, d.Name, av, set+1, bv))
				case math.Abs(bv-av) > allowed:
					verdict = "FAIL"
					rep.Pass = false
					rep.Notes = append(rep.Notes, fmt.Sprintf("%s %s: sets 1 and %d differ by %.1f%% (%.4g %s; allowed %.4g): a change this size cannot be told from noise here",
						w.name, d.Name, set+1, 100*(bv-av)/av, bv-av, d.Unit, allowed))
				case d.Resolve > 0 && math.Abs(bv-av) > d.Resolve*av:
					verdict = "UNRESOLVED"
					rep.Notes = append(rep.Notes, fmt.Sprintf("%s %s: sets 1 and %d differ by %.1f%%, inside the %.0f%% bound but more than the %.0f%% the issue wanted resolved",
						w.name, d.Name, set+1, 100*(bv-av)/av, 100*d.Bound, 100*d.Resolve))
				}
				fmt.Printf("%-13s %-19s set1 %14.4f  set%d %14.4f  %+7.2f%% (allowed %.4g %s)  %s\n",
					w.name, d.Name, av, set+1, bv, 100*(bv-av)/av, allowed, d.Unit, verdict)
			}
			for _, d := range perLayerDefs {
				if d.Exact && !bitsEqual(a[d.Name], b[d.Name]) {
					rep.Pass = false
					rep.Notes = append(rep.Notes, fmt.Sprintf("%s %s: exact counter reads %v in set 1 and %v in set %d",
						w.name, d.Name, a[d.Name], b[d.Name], set+1))
					fmt.Printf("%-13s %-19s exact counter differs: %v vs %v  FAIL\n", w.name, d.Name, a[d.Name], b[d.Name])
				}
			}
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return result{}, err
	}
	fmt.Println(string(line))
	all.Correct = all.Correct && rep.Pass
	return all, nil
}
