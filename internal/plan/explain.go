package plan

import (
	"fmt"
	"strings"
)

// Explain renders the plan as pseudo-code in the paper's nested-loop style
// (Figure 1/Figure 5): one loop per level with its set operations, symmetry
// restrictions, reuse annotations and active-list bookkeeping. It is meant
// for humans inspecting what a client system compiled; `khuzdul -explain`
// prints it.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pattern: %v\n", p.Pattern)
	fmt.Fprintf(&sb, "system:  %v   matching order: %v   |Aut| = %d\n", p.Style, p.Order, p.AutSize)
	if p.Induced {
		sb.WriteString("mode:    induced (motif semantics)\n")
	} else {
		sb.WriteString("mode:    non-induced\n")
	}
	if p.Labeled() {
		fmt.Fprintf(&sb, "labels:  %v (per position)\n", p.Labels)
	}
	if p.EdgeLabeled {
		sb.WriteString("edge labels: constrained per level\n")
	}
	indent := func(n int) string { return strings.Repeat("  ", n+1) }
	sb.WriteString("for v0 in V:")
	if p.Levels[0].NeedsList {
		sb.WriteString("    # keep N(v0) — active")
	}
	sb.WriteByte('\n')
	for i := 1; i < p.K; i++ {
		lv := &p.Levels[i]
		var set string
		switch {
		case lv.ReuseSame:
			set = fmt.Sprintf("R%d  # reuse parent intersection (VCS)", i-1)
		case lv.ReuseExtend:
			set = fmt.Sprintf("R%d ∩ N(v%d)  # extend parent intersection (VCS)", i-1, i-1)
		default:
			terms := make([]string, len(lv.Intersect))
			for j, pos := range lv.Intersect {
				terms[j] = fmt.Sprintf("N(v%d)", pos)
			}
			set = strings.Join(terms, " ∩ ")
		}
		if p.Induced && len(lv.Subtract) > 0 {
			subs := make([]string, len(lv.Subtract))
			for j, pos := range lv.Subtract {
				subs[j] = fmt.Sprintf("N(v%d)", pos)
			}
			set += " \\ (" + strings.Join(subs, " ∪ ") + ")"
		}
		fmt.Fprintf(&sb, "%sfor v%d in %s:", indent(i-1), i, set)
		var notes []string
		notes = append(notes, "kernel="+lv.KernelHint.String())
		for _, a := range lv.LowerBounds {
			notes = append(notes, fmt.Sprintf("v%d > v%d", i, a))
		}
		if len(lv.Clip) > 0 {
			terms := make([]string, len(lv.Clip))
			for j, pos := range lv.Clip {
				terms[j] = fmt.Sprintf("v%d", pos)
			}
			bound := strings.Join(terms, ", ")
			if len(terms) > 1 {
				bound = "max(" + bound + ")"
			}
			notes = append(notes, "from "+bound+"+1") // the set kernels' bound
		}
		if lv.StoreInter {
			notes = append(notes, fmt.Sprintf("store R%d", i))
		}
		if lv.NeedsList {
			notes = append(notes, fmt.Sprintf("fetch N(v%d) — active", i))
		}
		if len(notes) > 0 {
			sb.WriteString("    # " + strings.Join(notes, ", "))
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%semit(v0..v%d)\n", indent(p.K-1), p.K-1)
	if len(p.Levels[p.K-1].Active) == 0 {
		sb.WriteString("final level needs no edge lists: candidates are counted directly\n")
	}
	fmt.Fprintf(&sb, "estimated cost: %.3g\n", p.EstCost)
	return sb.String()
}
