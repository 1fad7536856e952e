package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spjoin/internal/runstore"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleStore builds a small synthetic store covering every section.
func sampleStore(t *testing.T) *runstore.Store {
	t.Helper()
	var buf bytes.Buffer
	w := runstore.NewWriter(&buf)
	add := func(exp string, params map[string]string, ms map[string]float64) {
		t.Helper()
		if err := w.Write(runstore.Record{
			Experiment: exp, Params: params, Seed: 42, Scale: 1, Engine: "sim",
			GitRev: "abc123", Metrics: ms,
		}); err != nil {
			t.Fatal(err)
		}
	}
	run := func(resp, first, work, disk float64) map[string]float64 {
		return map[string]float64{
			"response_s": resp, "first_s": first, "avg_s": (resp + first) / 2,
			"total_work_s": work, "disk": disk,
		}
	}
	for _, procs := range []string{"8", "24"} {
		for _, buffer := range []string{"200", "800"} {
			for i, v := range []string{"lsr", "gsrr", "gd"} {
				base := 26000.0
				if buffer == "800" {
					base = 19000
				}
				if procs == "24" {
					base += 9000
				}
				add("fig5", map[string]string{"procs": procs, "buffer": buffer, "variant": v},
					map[string]float64{"disk": base - float64(i)*700})
			}
		}
	}
	for _, v := range []string{"lsr", "gsrr", "gd"} {
		for i, ra := range []string{"none", "root", "all"} {
			add("fig7", map[string]string{"variant": v, "reassign": ra},
				run(291.6-float64(i)*58, 124.2+float64(i)*25, 1330+float64(i)*32, 19002+float64(i)*330))
		}
	}
	for _, v := range []string{"lsr", "gsrr", "gd"} {
		add("fig8", map[string]string{"variant": v, "victim": "loaded"}, map[string]float64{"disk": 19679})
		add("fig8", map[string]string{"variant": v, "victim": "random"}, map[string]float64{"disk": 20046})
	}
	t1 := 1083.5
	for _, n := range []struct {
		n string
		f float64
	}{{"1", 1}, {"4", 3.5}, {"8", 7}} {
		for _, d := range []string{"1", "8", "n"} {
			resp := t1 / n.f
			if d == "1" && n.n != "1" {
				resp = 600
			}
			add("fig9", map[string]string{"n": n.n, "d": d},
				map[string]float64{"response_s": resp, "total_work_s": 1100 + n.f*20,
					"disk": 19000 - n.f*500, "speedup": t1 / resp})
		}
	}
	for _, n := range []string{"1", "8"} {
		add("sn", map[string]string{"n": n, "platform": "svm"}, run(154.5, 150, 1200, 16237))
		add("sn", map[string]string{"n": n, "platform": "sn"}, run(170.2, 165, 1250, 18264))
	}
	add("est", map[string]string{"measure": "correlation"}, map[string]float64{"pearson_r": 0.64, "tasks": 609})
	add("est", map[string]string{"assignment": "range", "reassign": "none"}, run(291.6, 124.2, 1330, 19002))
	add("est", map[string]string{"assignment": "lpt", "reassign": "none"}, run(190.5, 147.8, 1340, 20254))
	add("est", map[string]string{"assignment": "lpt", "reassign": "all"}, run(180.2, 180.1, 1390, 20671))
	add("est", map[string]string{"assignment": "dynamic", "reassign": "all"}, run(181.5, 180.7, 1395, 20407))
	skew := func(comps, cands, units, hot, refined, subtiles float64) map[string]float64 {
		return map[string]float64{"comparisons": comps, "candidates": cands,
			"duplicates": 0, "units": units, "hot_unit": hot, "refined_tiles": refined, "subtiles": subtiles}
	}
	for _, c := range []struct {
		dist            string
		comps           float64
		cands           float64
		units           float64
		hotOff, hotAuto float64
		ref, subt       float64
	}{
		{"uniform", 22173, 106, 729, 1640, 1640, 0, 0},
		{"gauss60", 59849, 1912, 588, 5210, 5210, 0, 0},
		{"gauss20", 259164, 1194, 300, 48802, 48802, 0, 0},
		{"gauss5", 2115908, 19084, 1190, 1210000, 302500, 4, 32},
	} {
		add("skew", map[string]string{"dist": c.dist, "refine": "off"}, skew(c.comps, c.cands, c.units, c.hotOff, 0, 0))
		add("skew", map[string]string{"dist": c.dist, "refine": "auto"}, skew(c.comps, c.cands, c.units+c.subt-c.ref, c.hotAuto, c.ref, c.subt))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err := runstore.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// golden compares got against testdata/name, rewriting with -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/report -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from golden; run go test ./internal/report -update and review the diff.\n--- got ---\n%s", name, got)
	}
}

func TestMarkdownGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Markdown(&buf, sampleStore(t)); err != nil {
		t.Fatal(err)
	}
	golden(t, "report.md", buf.String())
}

func TestSpeedupSVGGolden(t *testing.T) {
	svg, err := SpeedupSVG(sampleStore(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(svg, "<svg xmlns=") || !strings.HasSuffix(svg, "</svg>\n") {
		t.Fatalf("not a standalone SVG document:\n%.120s", svg)
	}
	golden(t, "speedup.svg", svg)
}

func TestEfficiencySVGGolden(t *testing.T) {
	svg, err := EfficiencySVG(sampleStore(t))
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "efficiency.svg", svg)
}

func TestRenderDeterministic(t *testing.T) {
	s := sampleStore(t)
	a, err := SpeedupSVG(s)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := SpeedupSVG(s)
	if a != b {
		t.Fatal("SVG render not deterministic")
	}
	var ba, bb bytes.Buffer
	if err := Markdown(&ba, s); err != nil {
		t.Fatal(err)
	}
	if err := Markdown(&bb, s); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Fatal("markdown render not deterministic")
	}
}

func TestRegen(t *testing.T) {
	s := sampleStore(t)
	var doc strings.Builder
	doc.WriteString("# Title\n\nprose kept\n\n")
	for _, sec := range Sections() {
		doc.WriteString(beginMarker(sec.Name) + "\nstale\n" + endMarker(sec.Name) + "\n\nmore prose\n\n")
	}
	out, err := Regen([]byte(doc.String()), s)
	if err != nil {
		t.Fatal(err)
	}
	text := string(out)
	if strings.Contains(text, "stale") {
		t.Fatal("stale content survived regen")
	}
	if !strings.Contains(text, "prose kept") || strings.Count(text, "more prose") != len(Sections()) {
		t.Fatal("prose outside markers was not preserved")
	}
	fig7, err := Fig7Table(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, fig7) {
		t.Fatal("regen did not inline the fig7 table")
	}
	// Regen is idempotent: running again changes nothing.
	again, err := Regen(out, s)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != text {
		t.Fatal("regen not idempotent")
	}
	// A missing marker is an error naming the section.
	if _, err := Regen([]byte("no markers"), s); err == nil || !strings.Contains(err.Error(), "fig5") {
		t.Fatalf("missing marker not reported: %v", err)
	}
}

func TestHeatmapSVG(t *testing.T) {
	cells := []int64{0, 1, 2, 3, 4, 5}
	svg, err := HeatmapSVG("tile cost", 3, 2, cells)
	if err != nil {
		t.Fatalf("HeatmapSVG: %v", err)
	}
	if !strings.HasPrefix(svg, "<svg xmlns=") || !strings.HasSuffix(svg, "</svg>\n") {
		t.Fatalf("not a standalone SVG document:\n%.120s", svg)
	}
	if got := strings.Count(svg, "<rect"); got != 1+6 {
		t.Fatalf("rect count=%d, want background + 6 cells", got)
	}
	// Zero cell stays white; hottest cell is the full red.
	if !strings.Contains(svg, `fill="#ffffff"`) || !strings.Contains(svg, `fill="#c81818"`) {
		t.Fatalf("ramp endpoints missing:\n%s", svg)
	}
	if !strings.Contains(svg, "3x2 cells, max 5") {
		t.Fatalf("caption missing:\n%s", svg)
	}
	// Deterministic.
	svg2, _ := HeatmapSVG("tile cost", 3, 2, cells)
	if svg2 != svg {
		t.Fatalf("HeatmapSVG is not deterministic")
	}
	if _, err := HeatmapSVG("x", 0, 2, cells); err == nil {
		t.Fatalf("accepted zero-width grid")
	}
	if _, err := HeatmapSVG("x", 4, 2, cells); err == nil {
		t.Fatalf("accepted short cell slice")
	}
}
