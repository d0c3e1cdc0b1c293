package experiments

import (
	"fmt"
	"sort"

	"meshslice/internal/hw"
)

// Runner regenerates one paper experiment.
type Runner func(chip hw.Chip, quick bool) []*Table

// runners lists every experiment ID with its runner, in the paper's
// presentation order.
var runners = []struct {
	id  string
	run Runner
}{
	{"fig4", Fig4},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"table2", Table2},
	{"fig13", Fig13},
	{"fig14", Fig14},
	{"table3", Table3},
	{"fig15", Fig15},
	{"sec6", Sec6LogicalMesh},
	{"sec7", Sec7},
	{"endtoend", EndToEnd},
	{"zoo", Zoo},
	{"ablations", Ablations},
	{"calib", Calib},
	{"hardware", Hardware},
	{"faults", FaultRetuning},
}

// IDs returns the known experiment IDs in presentation order.
func IDs() []string {
	out := make([]string, len(runners))
	for i, e := range runners {
		out[i] = e.id
	}
	return out
}

// Run executes one experiment by ID.
func Run(id string, chip hw.Chip, quick bool) ([]*Table, error) {
	for _, e := range runners {
		if e.id == id {
			return e.run(chip, quick), nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
}
