// Package report renders the observatory's human-facing artifacts from a
// validated run store: the measured markdown tables of EXPERIMENTS.md,
// deterministic SVG speed-up/efficiency charts (no external dependencies,
// golden-file tested), and the marker-based regeneration that rewrites
// the measured sections of EXPERIMENTS.md in place. Everything is a pure
// function of the store, so two identical stores render byte-identical
// artifacts.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"spjoin/internal/runstore"
)

// Section is one regenerable block: a marker name and its generator.
type Section struct {
	Name string
	Gen  func(s *runstore.Store) (string, error)
}

// Sections lists every measured block of EXPERIMENTS.md in document order.
func Sections() []Section {
	return []Section{
		{"fig5", Fig5Table},
		{"fig7", Fig7Table},
		{"fig8", Fig8Table},
		{"fig9", Fig9Table},
		{"fig10", Fig10Table},
		{"sn", SNTable},
		{"est", ESTTable},
		{"skew", SkewTable},
	}
}

// Markdown renders the full observatory report: every measured table in
// paper order, headed by the store's provenance.
func Markdown(w io.Writer, s *runstore.Store) error {
	if s.Len() == 0 {
		return fmt.Errorf("report: empty run store")
	}
	r := s.Records[0]
	fmt.Fprintf(w, "# Observatory report\n\n")
	fmt.Fprintf(w, "Generated from a run store of %d cells (scale %g, seed %d, engine %s",
		s.Len(), r.Scale, r.Seed, r.Engine)
	if r.GitRev != "" {
		fmt.Fprintf(w, ", rev %s", r.GitRev)
	}
	fmt.Fprintf(w, ").\n")
	titles := map[string]string{
		"fig5":  "Figure 5 — disk accesses vs. buffer size",
		"fig7":  "Figure 7 — task reassignment",
		"fig8":  "Figure 8 — victim selection",
		"fig9":  "Figure 9 — response time vs. processors",
		"fig10": "Figure 10 — speed-up and disk accesses",
		"sn":    "Extension SN — SVM vs. shared-nothing",
		"est":   "Extension EST — estimation-based balancing",
		"skew":  "Extension SKEW — skew-adaptive hot-tile split",
	}
	for _, sec := range Sections() {
		body, err := sec.Gen(s)
		if err != nil {
			return fmt.Errorf("report: section %s: %w", sec.Name, err)
		}
		fmt.Fprintf(w, "\n## %s\n\n%s", titles[sec.Name], body)
	}
	return nil
}

// commas formats a float that carries an integer count with thousands
// separators ("16,243").
func commas(v float64) string {
	s := fmt.Sprintf("%.0f", v)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}

// table renders a markdown table from a header and rows.
func table(header []string, rows [][]string) string {
	var sb strings.Builder
	sb.WriteString("| " + strings.Join(header, " | ") + " |\n")
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = "---"
	}
	sb.WriteString("|" + strings.Join(sep, "|") + "|\n")
	for _, row := range rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return sb.String()
}

// Fig5Table renders disk accesses per buffer size: one column per
// (variant, procs) combination, matching the committed layout.
func Fig5Table(s *runstore.Store) (string, error) {
	header := []string{"buffer", "lsr (8)", "gsrr (8)", "gd (8)", "lsr (24)", "gsrr (24)", "gd (24)"}
	g8, err := s.Grid("fig5", "buffer", "variant", map[string]string{"procs": "8"})
	if err != nil {
		return "", err
	}
	g24, err := s.Grid("fig5", "buffer", "variant", map[string]string{"procs": "24"})
	if err != nil {
		return "", err
	}
	var rows [][]string
	for _, buffer := range g8.Rows {
		row := []string{buffer}
		for _, g := range []*runstore.Grid{g8, g24} {
			for _, v := range []string{"lsr", "gsrr", "gd"} {
				d, ok := g.Metric(buffer, v, "disk")
				if !ok {
					return "", fmt.Errorf("fig5 cell (buffer=%s, variant=%s) missing", buffer, v)
				}
				row = append(row, commas(d))
			}
		}
		rows = append(rows, row)
	}
	return table(header, rows), nil
}

// Fig7Table renders run times and disk accesses per variant × reassign.
func Fig7Table(s *runstore.Store) (string, error) {
	header := []string{"variant", "reassign", "first", "avg", "last", "total work", "disk"}
	var rows [][]string
	for _, v := range []string{"lsr", "gsrr", "gd"} {
		for _, ra := range []string{"none", "root", "all"} {
			rec, ok := s.Find("fig7", map[string]string{"variant": v, "reassign": ra})
			if !ok {
				return "", fmt.Errorf("fig7 cell (variant=%s, reassign=%s) missing", v, ra)
			}
			m := rec.Metrics
			rows = append(rows, []string{v, ra,
				fmt.Sprintf("%.1f", m["first_s"]), fmt.Sprintf("%.1f", m["avg_s"]),
				fmt.Sprintf("%.1f", m["response_s"]), fmt.Sprintf("%.0f", m["total_work_s"]),
				commas(m["disk"])})
		}
	}
	return table(header, rows), nil
}

// Fig8Table renders disk accesses per variant × victim policy.
func Fig8Table(s *runstore.Store) (string, error) {
	header := []string{"variant", "a: most-loaded", "b: arbitrary"}
	var rows [][]string
	for _, v := range []string{"lsr", "gsrr", "gd"} {
		row := []string{v}
		for _, vict := range []string{"loaded", "random"} {
			d, err := s.Metric("fig8", map[string]string{"variant": v, "victim": vict}, "disk")
			if err != nil {
				return "", err
			}
			row = append(row, commas(d))
		}
		rows = append(rows, row)
	}
	return table(header, rows), nil
}

// fig9Grid groups the shared Figure 9/10 sweep (rows n, cols d).
func fig9Grid(s *runstore.Store) (*runstore.Grid, error) {
	return s.Grid("fig9", "n", "d", nil)
}

// Fig9Table renders response time per n × disk configuration.
func Fig9Table(s *runstore.Store) (string, error) {
	g, err := fig9Grid(s)
	if err != nil {
		return "", err
	}
	header := []string{"n", "d=1", "d=8", "d=n", "total work d=n [s]"}
	var rows [][]string
	for _, n := range g.Rows {
		row := []string{n}
		for _, d := range []string{"1", "8", "n"} {
			v, ok := g.Metric(n, d, "response_s")
			if !ok {
				return "", fmt.Errorf("fig9 cell (n=%s, d=%s) missing", n, d)
			}
			row = append(row, fmt.Sprintf("%.1f", v))
		}
		tw, ok := g.Metric(n, "n", "total_work_s")
		if !ok {
			return "", fmt.Errorf("fig9 cell (n=%s, d=n) missing total_work_s", n)
		}
		row = append(row, fmt.Sprintf("%.1f", tw))
		rows = append(rows, row)
	}
	return table(header, rows), nil
}

// Fig10Table renders the speed-up series plus the d=n disk accesses.
func Fig10Table(s *runstore.Store) (string, error) {
	g, err := fig9Grid(s)
	if err != nil {
		return "", err
	}
	header := []string{"n", "speed-up d=1", "speed-up d=8", "speed-up d=n", "disk (d=n)"}
	var rows [][]string
	for _, n := range g.Rows {
		row := []string{n}
		for _, d := range []string{"1", "8", "n"} {
			v, ok := g.Metric(n, d, "speedup")
			if !ok {
				return "", fmt.Errorf("fig9 cell (n=%s, d=%s) missing speedup", n, d)
			}
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		dk, ok := g.Metric(n, "n", "disk")
		if !ok {
			return "", fmt.Errorf("fig9 cell (n=%s, d=n) missing disk", n)
		}
		row = append(row, commas(dk))
		rows = append(rows, row)
	}
	return table(header, rows), nil
}

// SNTable renders the SVM vs. shared-nothing comparison.
func SNTable(s *runstore.Store) (string, error) {
	header := []string{"n = d", "SVM t(n) [s]", "SN t(n) [s]", "SN/SVM", "SVM disk", "SN disk"}
	g, err := s.Grid("sn", "n", "platform", nil)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for _, n := range g.Rows {
		svm, ok1 := g.Metric(n, "svm", "response_s")
		snT, ok2 := g.Metric(n, "sn", "response_s")
		svmD, ok3 := g.Metric(n, "svm", "disk")
		snD, ok4 := g.Metric(n, "sn", "disk")
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return "", fmt.Errorf("sn cell n=%s incomplete", n)
		}
		ratio := 0.0
		if svm > 0 {
			ratio = snT / svm
		}
		rows = append(rows, []string{n,
			fmt.Sprintf("%.1f", svm), fmt.Sprintf("%.1f", snT), fmt.Sprintf("%.2f", ratio),
			commas(svmD), commas(snD)})
	}
	return table(header, rows), nil
}

// estNames maps the assignment axis to display names.
var estNames = map[string]string{
	"range":   "static range",
	"lpt":     "static estimated (LPT)",
	"dynamic": "dynamic",
}

// ESTTable renders the estimator correlation plus the assignment table.
func ESTTable(s *runstore.Store) (string, error) {
	r, err := s.Metric("est", map[string]string{"measure": "correlation"}, "pearson_r")
	if err != nil {
		return "", err
	}
	header := []string{"assignment", "reassign", "first [s]", "last [s]", "disk"}
	recs := s.Select("est", nil)
	// Deterministic order: range < lpt < dynamic, then reassign none < all.
	rank := map[string]int{"range": 0, "lpt": 1, "dynamic": 2}
	raRank := map[string]int{"none": 0, "root": 1, "all": 2}
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i].Params, recs[j].Params
		if rank[a["assignment"]] != rank[b["assignment"]] {
			return rank[a["assignment"]] < rank[b["assignment"]]
		}
		return raRank[a["reassign"]] < raRank[b["reassign"]]
	})
	var rows [][]string
	for _, rec := range recs {
		if rec.Params["measure"] == "correlation" {
			continue
		}
		m := rec.Metrics
		rows = append(rows, []string{
			estNames[rec.Params["assignment"]], rec.Params["reassign"],
			fmt.Sprintf("%.1f", m["first_s"]), fmt.Sprintf("%.1f", m["response_s"]),
			commas(m["disk"])})
	}
	return fmt.Sprintf("Estimate vs. actual per-task work: Pearson r = **%.2f**.\n\n%s",
		r, table(header, rows)), nil
}

// skewDistOrder fixes the skew ladder's display order (mild to extreme);
// lexical sorting would interleave the sigma levels.
var skewDistOrder = []string{"uniform", "gauss60", "gauss20", "gauss5"}

// SkewTable renders the partition engine's hot-tile split cells:
// comparisons and the hottest work unit's estimated cost with the split off
// and on the auto trigger, the hottest unit's ratio, the tiles split and the
// units they became, and the candidate count both must agree on.
func SkewTable(s *runstore.Store) (string, error) {
	header := []string{"distribution", "comparisons (off)", "comparisons (auto)",
		"hottest unit (off)", "hottest unit (auto)", "auto/off", "split tiles", "their units", "candidates"}
	var rows [][]string
	for _, dist := range skewDistOrder {
		var m [2]map[string]float64
		for i, refine := range []string{"off", "auto"} {
			recs := s.Select("skew", map[string]string{"dist": dist, "refine": refine})
			if len(recs) != 1 {
				return "", fmt.Errorf("skew cell dist=%s refine=%s: %d records", dist, refine, len(recs))
			}
			m[i] = recs[0].Metrics
		}
		off, auto := m[0], m[1]
		if off["candidates"] != auto["candidates"] {
			return "", fmt.Errorf("skew dist=%s: candidate counts diverge (%v vs %v)",
				dist, off["candidates"], auto["candidates"])
		}
		ratio := 1.0
		if off["hot_unit"] > 0 {
			ratio = auto["hot_unit"] / off["hot_unit"]
		}
		rows = append(rows, []string{dist,
			commas(off["comparisons"]), commas(auto["comparisons"]),
			commas(off["hot_unit"]), commas(auto["hot_unit"]),
			fmt.Sprintf("%.2f", ratio),
			fmt.Sprintf("%.0f", auto["refined_tiles"]), fmt.Sprintf("%.0f", auto["subtiles"]),
			commas(auto["candidates"])})
	}
	return table(header, rows), nil
}
