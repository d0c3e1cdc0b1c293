package serve

import (
	"fmt"
	"math"
	"testing"

	"meshslice/internal/gemm"
	"meshslice/internal/hw"
	"meshslice/internal/model"
	"meshslice/internal/netsim"
	"meshslice/internal/sched"
	"meshslice/internal/topology"
)

// The FC GeMMs a serving step prices are the decode- and prefill-shaped
// ones, M = 1 to 512 batch tokens; nothing else simulates them. Each
// (model, mesh, batch, layer) here is priced both ways — by the serving
// cost model (fcDataflows, what fcGeMM takes the minimum of) and by the
// simulator — for every dataflow at S = 1 and at the default policy's
// S = 4. The simulated price is train.EvaluateGeMMOnShape's for MeshSlice
// at a fixed S, a netsim run of sched.MeshSliceProgram, built here because
// train imports this package.
//
// At S = 1 on a batch that shards, the two prices are equal. A batch that
// does not shard on the mesh (M = 1, on every mesh) runs padded to the
// smallest M that does: the simulator refuses a quarter of a row per chip,
// which is what the serving price charges. At M = 1 the simulator's padded
// price is the right one, since a chip holds at least one row. The two
// agree within 0.2 % for OS and LS, where streaming the weight dominates,
// and the serving price is up to 5.6 % low for RS, whose reduce-scatter of
// C it prices at a fraction of one row; neither changes which (dataflow,
// S) is cheapest. A slice count the sliced dimensions do not divide cannot
// run (the simulator falls back to S = 1): such a candidate is compared
// with nothing, and serving must never choose it.
const (
	policyS = 4
	// fcPriceLow pins today's largest gap: at S = 4 the serving price is up
	// to 8.2 % below the simulator's, never above it. The closed form
	// prices each slice's steady state as max(compute, comm); the simulated
	// slices overlap less than that, by a residual not yet attributed.
	fcPriceLow = 0.085
)

// fcArgminDiffers lists the two near ties where serving picks a different
// (dataflow, S) than the simulator would: serving prices RS at S = 4 a few
// percent below its RS at S = 1, but that is within its own underestimate
// of S = 4, and the simulator prices the S = 4 run 2.4 % and 3.1 % above
// the S = 1 one. Each value bounds what serving's pick costs in the
// simulator over the best.
var fcArgminDiffers = map[string]float64{
	"GPT-3 4x8 torus M=512 FF2":           0.025,
	"Llama-3-70B 4x4 torus M=512 AttnOut": 0.031,
}

func TestFCPriceMatchesSimulator(t *testing.T) {
	chip := hw.TPUv4()
	worst, compared := 0.0, 0
	for _, cfg := range []model.Config{model.GPT3(), model.Llama3_70B()} {
		for _, mesh := range []topology.Torus{{Rows: 4, Cols: 4}, {Rows: 4, Cols: 8}, {Rows: 8, Cols: 8}} {
			for _, tokens := range []int{1, 8, 64, 512} {
				m := tokens
				for !shards(m, mesh) {
					m++
				}
				for _, fc := range cfg.FCLayers() {
					name := fmt.Sprintf("%s %v M=%d %s", cfg.Name, mesh, tokens, fc.Name)
					serveBest, desBest, serveFeasible := math.Inf(1), math.Inf(1), math.Inf(1)
					var servePick, desPick string
					pickTime := map[string]float64{}
					for _, S := range []int{1, policyS} {
						cm := newCostModel(newPriceBasis(cfg, newFabric(chip, mesh.Size(), nil)), mesh, S)
						prices := cm.fcDataflows(float64(tokens), float64(fc.InDim), float64(fc.OutDim), S)
						for df := gemm.OS; df <= gemm.RS; df++ {
							price := prices[df]
							serveBest = min(serveBest, price)
							p := gemm.Problem{M: m, N: fc.OutDim, K: fc.InDim, Dataflow: df}
							if g, _ := p.MaxSliceCount(mesh, chip.SliceBlock); g%S != 0 {
								continue
							}
							r := netsim.Simulate(sched.MeshSliceProgram(p, mesh, chip, S), chip, netsim.Options{})
							compared++
							gap := price/r.Makespan - 1
							worst = min(worst, gap)
							if gap < -fcPriceLow || gap > 1e-9 || (S == 1 && m == tokens && gap < -1e-9) {
								t.Errorf("%s %v S=%d: serving prices %.4g s, the simulator %.4g s (%+.2f %%)", name, df, S, price, r.Makespan, 100*gap)
							}
							pick := fmt.Sprintf("%v S=%d", df, S)
							pickTime[pick] = r.Makespan
							if price < serveFeasible {
								serveFeasible, servePick = price, pick
							}
							if r.Makespan < desBest {
								desBest, desPick = r.Makespan, pick
							}
						}
					}
					if serveBest != serveFeasible {
						t.Errorf("%s: serving's cheapest (dataflow, S) cannot run; the cheapest that can is %s", name, servePick)
					}
					regret, allowed := pickTime[servePick]/desBest-1, fcArgminDiffers[name]
					if servePick != desPick && (allowed == 0 || regret > allowed) {
						t.Errorf("%s: serving picks %s, the simulator %s; serving's pick costs %.2f %% more there", name, servePick, desPick, 100*regret)
					}
					if servePick == desPick && allowed != 0 {
						t.Errorf("%s: serving and the simulator now pick the same %s; drop it from fcArgminDiffers", name, servePick)
					}
				}
			}
		}
	}
	t.Logf("%d (GeMM, dataflow, S) prices compared; serving is at most %.2f %% below the simulator", compared, -100*worst)
}

// shards reports whether an M-row batch partitions over the mesh in every
// dataflow: M is a row dimension of C and a column dimension of RS's A.
func shards(m int, t topology.Torus) bool { return m%t.Rows == 0 && m%t.Cols == 0 }
