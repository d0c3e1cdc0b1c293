package experiments

import (
	"fmt"
	"math"

	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/train"
)

// WeakScalingChips are the cluster sizes of the weak-scaling sweep. The
// paper scales 16→256-way; we evaluate the perfect squares in that range so
// Cannon (square meshes only) appears at every point.
var WeakScalingChips = []int{16, 64, 256}

// Fig9 reproduces Figure 9: FLOP utilisation of the FC layers under weak
// scaling (batch = chips/2, sequence length 2048) for the seven algorithms
// and both LLMs. quick restricts the sweep to small clusters for CI runs.
func Fig9(chip hw.Chip, quick bool) []*Table {
	chipCounts := WeakScalingChips
	if quick {
		chipCounts = []int{16}
	}
	var tables []*Table
	var overWang, lost [2]float64 // per model, in percent
	for i, cfg := range []model.Config{model.GPT3(), model.MegatronNLG()} {
		t := &Table{
			ID:     "fig9",
			Title:  fmt.Sprintf("Weak-scaling FC FLOP utilisation — %s", cfg.Name),
			Header: append([]string{"algorithm"}, chipLabels(chipCounts)...),
		}
		var msUtil, wangUtil []float64
		for _, algo := range train.Algos {
			row := []string{algo.String()}
			utils := make([]float64, len(chipCounts))
			for j, chips := range chipCounts {
				utils[j] = fcUtilization(cfg, cfg.WeakScalingTokens(chips), chips, chip, algo)
				row = append(row, pct(utils[j]))
			}
			t.AddRow(row...)
			switch algo {
			case train.MeshSliceAlgo:
				msUtil = utils
			case train.WangAlgo:
				wangUtil = utils
			}
		}
		last := len(chipCounts) - 1
		overWang[i] = gain(msUtil[last], wangUtil[last])
		lost[i] = 100 * (1 - msUtil[last]/msUtil[0])
		tables = append(tables, t)
	}
	if !quick {
		tables = append(tables, claimTable("fig9",
			Claim{"GPT-3: MeshSlice over Wang, 256 chips", 13.8, overWang[0], "%", 31.2},
			Claim{"Megatron-NLG: MeshSlice over Wang, 256 chips", 26.0, overWang[1], "%", 16.9},
			Claim{"GPT-3: MeshSlice utilisation lost from 16 to 256 chips (relative)", 16.8, lost[0], "%", 4.1},
			Claim{"Megatron-NLG: MeshSlice utilisation lost from 16 to 256 chips (relative)", 5.8, lost[1], "%", 1.4},
		))
	}
	return tables
}

// Fig12 reproduces Figure 12: strong scaling with the batch fixed at 32
// sequences. FSDP is excluded — data parallelism needs the batch to grow
// with the chip count (§5.1.3).
func Fig12(chip hw.Chip, quick bool) []*Table {
	chipCounts := WeakScalingChips
	if quick {
		chipCounts = []int{16}
	}
	var tables []*Table
	for _, cfg := range []model.Config{model.GPT3(), model.MegatronNLG()} {
		t := &Table{
			ID:     "fig12",
			Title:  fmt.Sprintf("Strong-scaling FC FLOP utilisation (batch 32) — %s", cfg.Name),
			Header: append([]string{"algorithm"}, chipLabels(chipCounts)...),
		}
		for _, algo := range train.Algos {
			if algo == train.FSDPAlgo {
				continue
			}
			row := []string{algo.String()}
			for _, chips := range chipCounts {
				row = append(row, pct(fcUtilization(cfg, cfg.StrongScalingTokens(), chips, chip, algo)))
			}
			t.AddRow(row...)
		}
		t.Notes = append(t.Notes,
			"paper: all algorithms efficient at 16 chips (compute-bound); at 256 chips MeshSlice ≈ Collective ≈ Wang, all above 1DTP and SUMMA",
		)
		tables = append(tables, t)
	}
	return tables
}

// Fig10 reproduces Figure 10: the communication-time breakdown
// (launch / transfer / sync) of each algorithm relative to its own
// computation time, at 256 chips.
func Fig10(chip hw.Chip, quick bool) []*Table {
	chips := 256
	if quick {
		chips = 16
	}
	var tables []*Table
	for _, cfg := range []model.Config{model.GPT3(), model.MegatronNLG()} {
		t := &Table{
			ID:     "fig10",
			Title:  fmt.Sprintf("Comm time relative to compute time, %d chips — %s", chips, cfg.Name),
			Header: []string{"algorithm", "launch", "transfer", "sync", "total", "exposed"},
		}
		for _, algo := range train.Algos {
			r, err := train.EvaluateFC(cfg, cfg.WeakScalingTokens(chips), chips, chip, algo,
				train.Options{OptimizeDataflow: true})
			if err != nil {
				t.AddRow(algo.String(), "n/a", "n/a", "n/a", "n/a", "n/a")
				continue
			}
			ct := r.ComputeTime
			t.AddRow(algo.String(),
				fmt.Sprintf("%.3f", r.Comm.Launch/ct),
				fmt.Sprintf("%.3f", r.Comm.Transfer/ct),
				fmt.Sprintf("%.3f", r.Comm.Sync/ct),
				fmt.Sprintf("%.3f", r.Comm.Total()/ct),
				fmt.Sprintf("%.3f", r.ExposedComm/ct),
			)
		}
		t.Notes = append(t.Notes,
			"paper: Collective least comm (not overlappable); Wang adds launch, MeshSlice adds sync; SUMMA sync-dominated; Cannon/1D transfer-dominated",
		)
		tables = append(tables, t)
	}
	return tables
}

// Fig11 reproduces Figure 11: FLOP utilisation of the sixteen distinct
// training GeMMs (eight per model) under the 2D algorithms at 256 chips.
func Fig11(chip hw.Chip, quick bool) []*Table {
	chips := 256
	if quick {
		chips = 16
	}
	var tables []*Table
	// Sums of the per-GeMM speedups over both models' GeMMs, in percent,
	// and how many GeMMs MeshSlice runs fastest.
	var overColl, overWang float64
	var gemms, fastest int
	for _, cfg := range []model.Config{model.GPT3(), model.MegatronNLG()} {
		t := &Table{
			ID:     "fig11",
			Title:  fmt.Sprintf("Per-GeMM FLOP utilisation, %d chips — %s", chips, cfg.Name),
			Header: []string{"GeMM (M,N,K)"},
		}
		for _, algo := range train.TwoDAlgos {
			t.Header = append(t.Header, algo.String())
		}
		tokens := cfg.WeakScalingTokens(chips)
		for _, g := range cfg.DistinctGeMMs(tokens) {
			row := []string{fmt.Sprintf("%s (%d,%d,%d)", g.Name(), g.M, g.N, g.K)}
			prob := problemFor(g)
			var meshSlice, coll, wang, rival float64 // rival: the best other algorithm
			for _, algo := range train.TwoDAlgos {
				u := math.NaN()
				if r, err := train.EvaluateGeMM(prob, chips, chip, algo, train.Options{}); err == nil {
					u = r.Utilization(chip)
				}
				row = append(row, pct(u))
				switch algo {
				case train.MeshSliceAlgo:
					meshSlice = u
				case train.CollectiveAlgo:
					coll = u
				case train.WangAlgo:
					wang = u
				}
				if algo != train.MeshSliceAlgo {
					rival = math.Max(rival, u)
				}
			}
			t.AddRow(row...)
			gemms++
			if meshSlice > rival {
				fastest++
			}
			overColl += gain(meshSlice, coll)
			overWang += gain(meshSlice, wang)
		}
		tables = append(tables, t)
	}
	if !quick {
		n := float64(gemms)
		tables = append(tables, claimTable("fig11",
			Claim{"MeshSlice over Collective, arithmetic mean of the 16 per-GeMM speedups", 27.8, overColl / n, "%", 61.2},
			Claim{"MeshSlice over Wang, arithmetic mean of the 16 per-GeMM speedups", 19.1, overWang / n, "%", 18.4},
			Claim{"GeMMs (of 16) where MeshSlice is fastest", 16, float64(fastest), "", 0},
		))
	}
	return tables
}

// Table2 reproduces Table 2: FC FLOP utilisation without and with the
// autotuner's dataflow optimisation at 256 chips.
func Table2(chip hw.Chip, quick bool) []*Table {
	chips := 256
	if quick {
		chips = 16
	}
	t := &Table{
		ID:     "table2",
		Title:  fmt.Sprintf("MeshSlice dataflow optimisation, %d chips", chips),
		Header: []string{"LLM", "not optimized", "optimized", "speedup"},
	}
	nan := math.NaN()
	var before, after, gains [2]float64 // per model: utilisations and speedup, in percent
	for i, cfg := range []model.Config{model.GPT3(), model.MegatronNLG()} {
		tokens := cfg.WeakScalingTokens(chips)
		def, err1 := train.EvaluateFC(cfg, tokens, chips, chip, train.MeshSliceAlgo,
			train.Options{OptimizeDataflow: false})
		opt, err2 := train.EvaluateFC(cfg, tokens, chips, chip, train.MeshSliceAlgo,
			train.Options{OptimizeDataflow: true})
		if err1 != nil || err2 != nil {
			before[i], after[i], gains[i] = nan, nan, nan
			t.AddRow(cfg.Name, "n/a", "n/a", "n/a")
			continue
		}
		before[i], after[i], gains[i] = 100*def.Utilization(chip), 100*opt.Utilization(chip), gain(def.Time, opt.Time)
		t.AddRow(cfg.Name, pct(def.Utilization(chip)), pct(opt.Utilization(chip)), speedup(def.Time, opt.Time))
	}
	if quick {
		return []*Table{t}
	}
	return []*Table{t, claimTable("table2",
		Claim{"GPT-3: not optimized", 55.6, before[0], "%", 1.3},
		Claim{"GPT-3: optimized", 67.4, after[0], "%", 5.6},
		Claim{"GPT-3: speedup", 21.2, gains[0], "%", 7.2},
		Claim{"Megatron-NLG: not optimized", 78.2, before[1], "%", 11.0},
		Claim{"Megatron-NLG: optimized", 82.2, after[1], "%", 1.0},
		Claim{"Megatron-NLG: speedup", 5.1, gains[1], "%", 18.7},
	)}
}

// EndToEnd reports the headline end-to-end numbers of the abstract:
// MeshSlice vs Wang step times at 256 chips, FC plus non-FC layers.
func EndToEnd(chip hw.Chip, quick bool) []*Table {
	chips := 256
	if quick {
		chips = 16
	}
	t := &Table{
		ID:     "endtoend",
		Title:  fmt.Sprintf("End-to-end training step, %d chips (FC simulated + non-FC roofline)", chips),
		Header: []string{"LLM", "MeshSlice step", "Wang step", "speedup"},
	}
	var gains [2]float64 // per model, in percent
	for i, cfg := range []model.Config{model.GPT3(), model.MegatronNLG()} {
		tokens := cfg.WeakScalingTokens(chips)
		msRes, err1 := train.EvaluateFC(cfg, tokens, chips, chip, train.MeshSliceAlgo, train.Options{OptimizeDataflow: true})
		wangRes, err2 := train.EvaluateFC(cfg, tokens, chips, chip, train.WangAlgo, train.Options{OptimizeDataflow: true})
		if err1 != nil || err2 != nil {
			gains[i] = math.NaN()
			t.AddRow(cfg.Name, "n/a", "n/a", "n/a")
			continue
		}
		msStep := train.EstimateStep(cfg, tokens, chips, chip, msRes)
		wangStep := train.EstimateStep(cfg, tokens, chips, chip, wangRes)
		gains[i] = gain(wangStep.Total, msStep.Total)
		t.AddRow(cfg.Name, ms(msStep.Total), ms(wangStep.Total), speedup(wangStep.Total, msStep.Total))
	}
	if quick {
		return []*Table{t}
	}
	return []*Table{t, claimTable("endtoend",
		Claim{"GPT-3: MeshSlice over Wang, end to end", 12.0, gains[0], "%", 31.4},
		Claim{"Megatron-NLG: MeshSlice over Wang, end to end", 23.4, gains[1], "%", 18.5},
	)}
}

// fcUtilization is an algorithm's FC utilisation with the dataflow
// optimised, NaN when it cannot run.
func fcUtilization(cfg model.Config, tokens, chips int, chip hw.Chip, algo train.Algo) float64 {
	r, err := train.EvaluateFC(cfg, tokens, chips, chip, algo, train.Options{OptimizeDataflow: true})
	if err != nil {
		return math.NaN()
	}
	return r.Utilization(chip)
}

func chipLabels(counts []int) []string {
	out := make([]string, len(counts))
	for i, c := range counts {
		out[i] = fmt.Sprintf("%d chips", c)
	}
	return out
}
