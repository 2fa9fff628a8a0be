// Package vhdl emits a behavioral VHDL skeleton from an FSMD — the
// artifact the paper's flow produced before handing designs to logic
// synthesis ("we converted the transformed C codes to behavioral VHDL").
//
// The emitted architecture contains the register banks scalar replacement
// created, the loop counters, block-RAM port signals for every RAM-mapped
// array, and one FSM state per scheduled cycle and iteration class, each
// annotated with the RAM transactions and ALU evaluations it issues. The
// output is deterministic, golden-tested, and intended for inspection and
// downstream synthesis experiments; this repository does not run a
// synthesizer (see DESIGN.md for the substitution).
//
//repro:deterministic-output
package vhdl

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/dfg"
	"repro/internal/rtl"
)

// Emit renders the FSMD as a behavioral VHDL entity/architecture pair.
func Emit(f *rtl.FSMD, entity string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- generated from kernel %s; %d iteration class(es)\n", f.Nest.Name, len(f.Classes))
	b.WriteString("library IEEE;\nuse IEEE.std_logic_1164.all;\nuse IEEE.numeric_std.all;\n\n")
	fmt.Fprintf(&b, "entity %s is\n  port (\n    clk   : in  std_logic;\n    rst   : in  std_logic;\n    start : in  std_logic;\n    done  : out std_logic\n  );\nend entity %s;\n\n", entity, entity)
	fmt.Fprintf(&b, "architecture behavioral of %s is\n", entity)

	// Register banks from the storage plan.
	for _, e := range f.Plan.Order() {
		if e.Coverage == 0 {
			continue
		}
		arr := e.Info.Group.Ref.Array
		fmt.Fprintf(&b, "  type r_%s_t is array (0 to %d) of unsigned(%d downto 0); -- window of %s\n",
			arr.Name, e.Coverage-1, arr.ElemBits-1, e.Info.Key())
		fmt.Fprintf(&b, "  signal r_%s : r_%s_t;\n", arr.Name, arr.Name)
	}
	// Loop counters.
	for _, l := range f.Nest.Loops {
		fmt.Fprintf(&b, "  signal cnt_%s : unsigned(%d downto 0); -- %d..%d step %d\n",
			l.Var, counterBits(l.Hi)-1, l.Lo, l.Hi, l.Step)
	}
	// Block-RAM port signals for every array the datapath touches.
	for _, a := range f.Nest.Arrays() {
		addr := counterBits(a.Size())
		fmt.Fprintf(&b, "  signal %s_addr : unsigned(%d downto 0);\n", a.Name, addr-1)
		fmt.Fprintf(&b, "  signal %s_din, %s_dout : unsigned(%d downto 0);\n", a.Name, a.Name, a.ElemBits-1)
		fmt.Fprintf(&b, "  signal %s_we, %s_en : std_logic;\n", a.Name, a.Name)
	}
	// State enumeration: one state per cycle per class plus idle/done.
	states := []string{"S_IDLE"}
	for _, cf := range f.Classes {
		for cyc := 0; cyc < cf.States; cyc++ {
			states = append(states, stateName(cf.Signature, cyc))
		}
	}
	states = append(states, "S_DONE")
	fmt.Fprintf(&b, "  type state_t is (%s);\n", strings.Join(states, ", "))
	b.WriteString("  signal state : state_t;\nbegin\n")
	b.WriteString("  done <= '1' when state = S_DONE else '0';\n\n")
	b.WriteString("  control : process(clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        state <= S_IDLE;\n      else\n        case state is\n")
	b.WriteString("          when S_IDLE =>\n            if start = '1' then state <= " + states[1] + "; end if;\n")
	for _, cf := range f.Classes {
		sig := cf.Signature
		for cyc := 0; cyc < cf.States; cyc++ {
			fmt.Fprintf(&b, "          when %s =>\n", stateName(sig, cyc))
			for _, id := range cf.IssueAt[cyc] {
				n := f.Graph.Nodes[id]
				emitNodeAction(&b, f, cf, n)
			}
			if cyc+1 < cf.States {
				fmt.Fprintf(&b, "            state <= %s;\n", stateName(sig, cyc+1))
			} else {
				b.WriteString("            -- iteration boundary: counters advance, next class selected\n")
				b.WriteString("            state <= S_DONE; -- placeholder: next-state mux over counters\n")
			}
		}
	}
	b.WriteString("          when S_DONE =>\n            null;\n")
	b.WriteString("        end case;\n      end if;\n    end if;\n  end process control;\n")
	b.WriteString("end architecture behavioral;\n")
	return b.String()
}

func emitNodeAction(b *strings.Builder, f *rtl.FSMD, cf *rtl.ClassFSM, n *dfg.Node) {
	switch {
	case n.Kind == dfg.KindRef && cf.Hit[n.RefKey] && n.IsWrite:
		fmt.Fprintf(b, "            -- reg write: r_%s(window) <= datapath(%s)\n", n.Ref.Array.Name, n.RefKey)
	case n.Kind == dfg.KindRef && cf.Hit[n.RefKey]:
		fmt.Fprintf(b, "            -- reg read: %s from r_%s\n", n.RefKey, n.Ref.Array.Name)
	case n.Kind == dfg.KindRef && n.IsWrite:
		fmt.Fprintf(b, "            %s_en <= '1'; %s_we <= '1'; -- ram write %s\n", n.Ref.Array.Name, n.Ref.Array.Name, n.RefKey)
	case n.Kind == dfg.KindRef:
		fmt.Fprintf(b, "            %s_en <= '1'; %s_we <= '0'; -- ram read %s\n", n.Ref.Array.Name, n.Ref.Array.Name, n.RefKey)
	default:
		fmt.Fprintf(b, "            -- alu: %s (op %s)\n", n.Label(), n.Op)
	}
}

func stateName(sig string, cyc int) string {
	return fmt.Sprintf("S_C%s_%d", sig, cyc)
}

// counterBits returns the width needed to count to n-1 (minimum 1).
func counterBits(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
