package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is the range of vs as a share of their median.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	return ratio(quantile(vs, 1)-quantile(vs, 0), median(vs))
}

// worsening returns by what share of a the value b is worse than a
// (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// verdict applies the benchmark's regression rule to one workload and
// metric: "unresolved" when the per-round spread of either file is wider
// than the bound, unless every round of b reads better than every round of
// a; otherwise "worse" when b is worse than a by more than the bound.
func verdict(d metricDef, a, b float64, aRounds, bRounds []float64) string {
	if max(spread(aRounds), spread(bRounds)) > d.Bound {
		allBetter := len(aRounds) > 0 && len(bRounds) > 0
		for _, x := range aRounds {
			for _, y := range bRounds {
				allBetter = allBetter && worsening(d, x, y) < 0
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	if worsening(d, a, b) > d.Bound {
		return "worse"
	}
	return "ok"
}

// compareFiles prints, for every workload and end-to-end metric, both
// values, the delta, the bound and the verdict. It returns an error when
// the files cannot be compared or any verdict is "worse".
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadResult(pathA)
	if err != nil {
		return err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return err
	}
	if a.Meta.Kernel != b.Meta.Kernel || a.Meta.GOMAXPROCS != b.Meta.GOMAXPROCS || a.Meta.Scale != b.Meta.Scale {
		return fmt.Errorf("refusing to compare: kernel %s/%s, GOMAXPROCS %d/%d, scale %g/%g",
			a.Meta.Kernel, b.Meta.Kernel, a.Meta.GOMAXPROCS, b.Meta.GOMAXPROCS, a.Meta.Scale, b.Meta.Scale)
	}
	fmt.Fprintf(w, "a: %s  commit %s seed %d\nb: %s  commit %s seed %d\n",
		pathA, a.Meta.Commit, a.Meta.Seed, pathB, b.Meta.Commit, b.Meta.Seed)
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "verdict")
	worse := 0
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			for _, d := range endToEnd {
				va, okA := wa.Metrics[d.Name]
				vb, okB := wb.Metrics[d.Name]
				if !okA || !okB {
					continue
				}
				v := verdict(d, va, vb, wa.PerRound[d.Name], wb.PerRound[d.Name])
				if v == "worse" {
					worse++
				}
				fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n",
					wa.Name, d.Name, va, vb, 100*ratio(vb-va, va), 100*d.Bound, v)
			}
			// fail_share must be 0 on both sides.
			if wa.Failed+wb.Failed > 0 {
				worse++
				fmt.Fprintf(w, "%-16s %-16s %14d %14d %8s %7s  worse\n", wa.Name, "failed", wa.Failed, wb.Failed, "", "0")
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d comparisons are worse than their bound", worse)
	}
	return nil
}
