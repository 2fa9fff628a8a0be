package sched

import (
	"reflect"
	"testing"

	"repro/internal/dfg"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// TestSimulatorObsRecordsClassStageOnly: an instrumented simulator times
// class scheduling under sim/class and records no other stage — the
// estimate replays no transfers — and instrumentation never changes the
// Result.
func TestSimulatorObsRecordsClassStageOnly(t *testing.T) {
	for _, k := range []kernels.Kernel{kernels.BIC(), kernels.FIR()} {
		plan, _ := fragmentInputs(t, k)
		g, err := dfg.Build(k.Nest)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := (&Simulator{}).SimulateGraph(k.Nest, g, plan, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: plain: %v", k.Name, err)
		}
		m := obs.New()
		instr, err := (&Simulator{Obs: m}).SimulateGraph(k.Nest, g, plan, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: instrumented: %v", k.Name, err)
		}
		if !reflect.DeepEqual(plain, instr) {
			t.Fatalf("%s: instrumented Result diverges from plain\n got %+v\nwant %+v", k.Name, instr, plain)
		}
		snap := m.Snapshot()
		if c := snap.Stages["sim/class"].Count; c != int64(len(plain.Classes)) {
			t.Errorf("%s: %d sim/class observations, the plan has %d classes", k.Name, c, len(plain.Classes))
		}
		if names := snap.Names(); len(names) != 1 {
			t.Errorf("%s: stages %v, want sim/class alone", k.Name, names)
		}
	}
}
