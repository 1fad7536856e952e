package claims

// paper.go encodes every check-mark EXPERIMENTS.md asserts as a claim the
// observatory re-checks on each run store. Tolerances are deliberately
// loose enough to hold from -scale 0.1 (the CI gate) to 1.0 (the committed
// tables): the claims pin the paper's *shape* — orderings, factors,
// crossovers — not absolute seconds.

func c5(procs, buffer, variant string) CellRef {
	return CellRef{Exp: "fig5", Params: map[string]string{"procs": procs, "buffer": buffer, "variant": variant}}
}

func c7(variant, reassign string) CellRef {
	return CellRef{Exp: "fig7", Params: map[string]string{"variant": variant, "reassign": reassign}}
}

func c8(variant, victim string) CellRef {
	return CellRef{Exp: "fig8", Params: map[string]string{"variant": variant, "victim": victim}}
}

func c9(n, d string) CellRef {
	return CellRef{Exp: "fig9", Params: map[string]string{"n": n, "d": d}}
}

func csn(n, platform string) CellRef {
	return CellRef{Exp: "sn", Params: map[string]string{"n": n, "platform": platform}}
}

func cest(assignment, reassign string) CellRef {
	return CellRef{Exp: "est", Params: map[string]string{"assignment": assignment, "reassign": reassign}}
}

func cskew(dist, refine string) CellRef {
	return CellRef{Exp: "skew", Params: map[string]string{"dist": dist, "refine": refine}}
}

// Paper returns the claim set covering Table 1 and Figures 5, 7, 8, 9 and
// 10 plus the SN and EST extensions — each entry is one "✓" (or prose
// assertion) from EXPERIMENTS.md.
func Paper() []Claim {
	var cs []Claim

	// ---- Table 1 -------------------------------------------------------
	cs = append(cs, Claim{
		ID: "table1-tree-height", Figure: "Table 1", Kind: Bound,
		Text:   "both R*-trees have the paper's height 3",
		Metric: "height", Min: 3, Max: 3,
		Groups: [][]CellRef{
			{{Exp: "table1", Params: map[string]string{"tree": "streets"}}},
			{{Exp: "table1", Params: map[string]string{"tree": "features"}}},
		},
	})

	// ---- Figure 5 ------------------------------------------------------
	var gdFewest, moreProcs [][]CellRef
	for _, procs := range []string{"8", "24"} {
		for _, buffer := range []string{"200", "800", "3200"} {
			gdFewest = append(gdFewest,
				[]CellRef{c5(procs, buffer, "gd"), c5(procs, buffer, "gsrr")},
				[]CellRef{c5(procs, buffer, "gd"), c5(procs, buffer, "lsr")})
		}
	}
	for _, variant := range []string{"lsr", "gsrr", "gd"} {
		for _, buffer := range []string{"200", "800", "3200"} {
			moreProcs = append(moreProcs, []CellRef{c5("8", buffer, variant), c5("24", buffer, variant)})
		}
	}
	cs = append(cs,
		Claim{
			ID: "fig5-gd-fewest-disk", Figure: "Figure 5", Kind: Ordering,
			Text:   "gd needs the fewest disk accesses at every buffer size",
			Metric: "disk", Slack: 0.01, Groups: gdFewest,
		},
		Claim{
			ID: "fig5-global-profits-more", Figure: "Figure 5", Kind: RatioOrder,
			Text:   "global buffers profit more from growing buffers than local ones",
			Metric: "disk", Slack: 0.02,
			// The n=8 columns EXPERIMENTS.md cites (lsr improves 34%, gsrr
			// 44%, gd 43% from 200 to 3200 pages); at n=24 the per-processor
			// buffer floor distorts tiny scales.
			Groups: [][]CellRef{
				{c5("8", "200", "gd"), c5("8", "3200", "gd"), c5("8", "200", "lsr"), c5("8", "3200", "lsr")},
				{c5("8", "200", "gsrr"), c5("8", "3200", "gsrr"), c5("8", "200", "lsr"), c5("8", "3200", "lsr")},
			},
		},
		Claim{
			ID: "fig5-more-procs-more-disk", Figure: "Figure 5", Kind: Ordering,
			Text:   "more processors need more disk accesses at equal total buffer",
			Metric: "disk", Slack: 0.01, Groups: moreProcs, MinScale: 1,
		},
	)

	// ---- Figure 7 ------------------------------------------------------
	var cutsResponse, spread, work [][]CellRef
	for _, variant := range []string{"lsr", "gsrr", "gd"} {
		cutsResponse = append(cutsResponse, []CellRef{c7(variant, "all"), c7(variant, "none")})
		spread = append(spread, []CellRef{c7(variant, "all"), c7(variant, "none")})
		work = append(work, []CellRef{c7(variant, "all"), c7(variant, "none")})
	}
	cs = append(cs,
		Claim{
			ID: "fig7-reassign-cuts-response", Figure: "Figure 7", Kind: Ordering,
			Text:   "all-level reassignment never worsens the response time",
			Metric: "response_s", Slack: 0.01, Groups: cutsResponse,
		},
		Claim{
			ID: "fig7-reassign-collapses-spread", Figure: "Figure 7", Kind: Ratio,
			Text:   "reassignment collapses the first/last finisher spread",
			Metric: "spread_s", Min: 0, Max: 0.5, Groups: spread,
		},
		Claim{
			ID: "fig7-total-work-slight", Figure: "Figure 7", Kind: Ratio,
			Text:   "total work of all tasks rises only slightly under reassignment",
			Metric: "total_work_s", Min: 0.95, Max: 1.15, Groups: work,
		},
		Claim{
			ID: "fig7-lsr-reassign-extra-disk", Figure: "Figure 7", Kind: Ordering,
			Text:   "with local buffers, reassignment costs extra disk accesses",
			Metric: "disk", Groups: [][]CellRef{{c7("lsr", "none"), c7("lsr", "all")}},
		},
		Claim{
			ID: "fig7-gd-root-noop", Figure: "Figure 7", Kind: Equal,
			Text:    "root-level reassignment is exactly a no-op for gd",
			Metrics: []string{"disk", "response_s", "first_s", "total_work_s"},
			Groups:  [][]CellRef{{c7("gd", "root"), c7("gd", "none")}},
		},
	)

	// ---- Figure 8 ------------------------------------------------------
	cs = append(cs,
		Claim{
			ID: "fig8-lsr-arbitrary-costs", Figure: "Figure 8", Kind: Ordering,
			Text:   "an arbitrary victim costs extra disk accesses with local buffers",
			Metric: "disk", Slack: 0.002,
			Groups: [][]CellRef{{c8("lsr", "loaded"), c8("lsr", "random")}},
		},
		Claim{
			ID: "fig8-global-indifferent", Figure: "Figure 8", Kind: Ratio,
			Text:   "with a global buffer the victim policy costs at most a few percent",
			Metric: "disk", Min: 0.95, Max: 1.05,
			Groups: [][]CellRef{
				{c8("gd", "random"), c8("gd", "loaded")},
				{c8("gsrr", "random"), c8("gsrr", "loaded")},
			},
		},
	)

	// ---- Figure 9 ------------------------------------------------------
	cs = append(cs,
		Claim{
			ID: "fig9-d1-plateau", Figure: "Figure 9", Kind: Ratio,
			Text:   "with one disk the response time flattens from 4 processors on",
			Metric: "response_s", Min: 0.6, Max: 1.02,
			Groups: [][]CellRef{{c9("24", "1"), c9("4", "1")}},
		},
		Claim{
			ID: "fig9-crossover-d8-dn", Figure: "Figure 9", Kind: Crossover,
			Text:   "d=8 beats d=n at few processors and falls behind past n=10",
			Metric: "response_s", Slack: 0.02,
			SeriesA: Series{Exp: "fig9", Fixed: map[string]string{"d": "8"}, Axis: "n"},
			SeriesB: Series{Exp: "fig9", Fixed: map[string]string{"d": "n"}, Axis: "n"},
		},
		Claim{
			ID: "fig9-dn-keeps-falling", Figure: "Figure 9", Kind: Monotone,
			Text:   "with d=n the response time keeps falling to the end",
			Metric: "response_s", Dir: -1, Slack: 0.02,
			SeriesA: Series{Exp: "fig9", Fixed: map[string]string{"d": "n"}, Axis: "n"},
		},
	)

	// ---- Figure 10 -----------------------------------------------------
	cs = append(cs,
		Claim{
			ID: "fig10-dn-speedup-near-linear", Figure: "Figure 10", Kind: Bound,
			Text:   "near-linear speed-up for d=n at 24 processors",
			Metric: "speedup", Min: 15, Max: 24,
			Groups: [][]CellRef{{c9("24", "n")}},
		},
		Claim{
			ID: "fig10-d8-flattens", Figure: "Figure 10", Kind: Ratio,
			Text:   "the d=8 speed-up flattens past ~10 processors",
			Metric: "speedup", Min: 1.0, Max: 1.35,
			Groups: [][]CellRef{{c9("24", "8"), c9("16", "8")}},
		},
		Claim{
			ID: "fig10-disk-falls", Figure: "Figure 10", Kind: Ordering,
			Text:   "disk accesses fall as n grows (the global buffer grows with n)",
			Metric: "disk", Slack: 0.01,
			Groups: [][]CellRef{{c9("24", "n"), c9("16", "n"), c9("8", "n"), c9("1", "n")}},
		},
		Claim{
			ID: "fig10-total-work-bounded", Figure: "Figure 10", Kind: Ratio,
			Text:   "total work rises at most ~16% over the sequential run",
			Metric: "total_work_s", Min: 0.95, Max: 1.20, MinScale: 1,
			Groups: [][]CellRef{
				{c9("4", "n"), c9("1", "n")},
				{c9("8", "n"), c9("1", "n")},
				{c9("24", "n"), c9("1", "n")},
			},
		},
	)

	// ---- Extension SN --------------------------------------------------
	cs = append(cs,
		Claim{
			ID: "sn-comparable", Figure: "Extension SN", Kind: Ratio,
			Text:   "shared-nothing stays close to the SVM platform (n <= 8)",
			Metric: "response_s", Min: 0.85, Max: 1.2,
			Groups: [][]CellRef{
				{csn("4", "sn"), csn("4", "svm")},
				{csn("8", "sn"), csn("8", "svm")},
			},
		},
		Claim{
			ID: "sn-comparable-24", Figure: "Extension SN", Kind: Ratio,
			Text:   "shared-nothing stays within ~12% of SVM at n=24",
			Metric: "response_s", Min: 0.85, Max: 1.15, MinScale: 1,
			Groups: [][]CellRef{{csn("24", "sn"), csn("24", "svm")}},
		},
	)

	// ---- Extension EST -------------------------------------------------
	cs = append(cs,
		Claim{
			ID: "est-real-but-unreliable", Figure: "Extension EST", Kind: Bound,
			Text:   "the task-cost estimator carries real but unreliable signal",
			Metric: "pearson_r", Min: 0.3, Max: 0.95,
			Groups: [][]CellRef{{{Exp: "est", Params: map[string]string{"measure": "correlation"}}}},
		},
		Claim{
			ID: "est-helps-static", Figure: "Extension EST", Kind: Ordering,
			Text:   "LPT on estimates beats a static range assignment",
			Metric: "response_s", MinScale: 1,
			Groups: [][]CellRef{{cest("lpt", "none"), cest("range", "none")}},
		},
		Claim{
			ID: "est-dynamic-matches", Figure: "Extension EST", Kind: Ratio,
			Text:   "dynamic assignment matches LPT without any estimator",
			Metric: "response_s", Min: 0.9, Max: 1.1,
			Groups: [][]CellRef{{cest("dynamic", "all"), cest("lpt", "all")}},
		},
	)

	// ---- Extension SKEW ------------------------------------------------
	// The hot-tile split on the native partition engine: it splits a hot
	// tile's sweep, never its work — the comparisons and the candidate count
	// are the unsplit join's everywhere — cuts the extreme level's hottest
	// work unit, and stays entirely out of the way on uniform data.
	cs = append(cs,
		Claim{
			ID: "skew-refined-no-worse", Figure: "Extension SKEW", Kind: Equal,
			Text:    "the split leaves the comparisons on clustered inputs exactly as they are",
			Metrics: []string{"comparisons"},
			Groups: [][]CellRef{
				{cskew("gauss60", "auto"), cskew("gauss60", "off")},
				{cskew("gauss20", "auto"), cskew("gauss20", "off")},
				{cskew("gauss5", "auto"), cskew("gauss5", "off")},
			},
		},
		Claim{
			ID: "skew-extreme-pays", Figure: "Extension SKEW", Kind: Ratio,
			Text:   "on the extreme level the hottest work unit falls to at most 0.6x",
			Metric: "hot_unit", Min: 0, Max: 0.6,
			Groups: [][]CellRef{{cskew("gauss5", "auto"), cskew("gauss5", "off")}},
		},
		Claim{
			ID: "skew-exact-candidates", Figure: "Extension SKEW", Kind: Equal,
			Text:    "split and unsplit joins report the identical candidate count",
			Metrics: []string{"candidates"},
			Groups: [][]CellRef{
				{cskew("uniform", "auto"), cskew("uniform", "off")},
				{cskew("gauss60", "auto"), cskew("gauss60", "off")},
				{cskew("gauss20", "auto"), cskew("gauss20", "off")},
				{cskew("gauss5", "auto"), cskew("gauss5", "off")},
			},
		},
		Claim{
			ID: "skew-uniform-noop", Figure: "Extension SKEW", Kind: Equal,
			Text:    "on uniform data the auto trigger never fires — same schedule, same work",
			Metrics: []string{"comparisons", "candidates", "refined_tiles", "subtiles"},
			Groups:  [][]CellRef{{cskew("uniform", "auto"), cskew("uniform", "off")}},
		},
		Claim{
			ID: "skew-extreme-refines", Figure: "Extension SKEW", Kind: Bound,
			Text:   "the extreme level engages the split",
			Metric: "refined_tiles", Min: 1, Max: 64,
			Groups: [][]CellRef{{cskew("gauss5", "auto")}},
		},
	)

	return cs
}
