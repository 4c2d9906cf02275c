package datalog

// Explain renders the compiled evaluation plan for inspection (the
// -explain flag of cmd/datalog). It is a compile-time view: valid after
// New, before Run.

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Explain writes a human-readable rendering of every compiled rule
// version: the index assigned to each positive atom, the bound prefix
// pushed into it, the comparisons absorbed into its scan bounds, and
// the residual suffix actions. The trailing summary reports whether the
// compilation was served from the plan cache.
func (e *Engine) Explain() string { return e.explain(false) }

// ExplainAnalyze renders the compiled plan annotated with the actual
// execution counts of the completed run (the -analyze flag of
// cmd/datalog). Each rule version reports its evaluation count and
// accumulated time; each scan node its exact actuals — scans opened,
// rows pulled through the iterator, rows emitted past the residual
// actions. A trailing totals line cross-checks the per-node sums
// against the aggregate Stats: both are fed by the same always-on
// accumulators (never the sampled span ring), so the numbers agree
// exactly. Valid after Run.
func (e *Engine) ExplainAnalyze() string { return e.explain(true) }

func (e *Engine) explain(analyze bool) string {
	var sb strings.Builder
	if analyze && !e.ran {
		sb.WriteString("explain analyze: engine has not run; actuals are all zero\n")
	}

	// Index inventories first, in relation-name order.
	names := make([]string, 0, len(e.rels))
	for name := range e.rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := e.rels[name]
		fmt.Fprintf(&sb, "relation %s/%d: %d index(es)", name, r.arity, len(r.indexes))
		for i, d := range r.indexes {
			if i == 0 {
				sb.WriteString("  [")
			} else {
				sb.WriteString(" [")
			}
			sb.WriteString(d.signature())
			sb.WriteString("]")
		}
		sb.WriteByte('\n')
	}

	var totScans, totRows, totEmitted uint64
	for si := 0; si < len(e.strata); si++ {
		for _, p := range e.plans[si] {
			if analyze {
				fmt.Fprintf(&sb, "stratum %d: %s  (evals=%d total=%v)\n", si, p.label, p.evalCount, p.evalTime)
			} else {
				fmt.Fprintf(&sb, "stratum %d: %s\n", si, p.label)
			}
			for li := range p.body {
				l := &p.body[li]
				sb.WriteString("  ")
				sb.WriteString(e.explainLit(p, l))
				if analyze && l.kind == LitAtom {
					scans := atomic.LoadUint64(&l.actScans)
					rows := atomic.LoadUint64(&l.actRows)
					emitted := atomic.LoadUint64(&l.actEmitted)
					totScans += scans
					totRows += rows
					totEmitted += emitted
					fmt.Fprintf(&sb, "  | actual scans=%d rows=%d emitted=%d", scans, rows, emitted)
				}
				sb.WriteByte('\n')
			}
		}
	}
	if analyze {
		fmt.Fprintf(&sb, "actual totals: scans=%d rows=%d emitted=%d (stats: stream_scans=%d stream_rows=%d)\n",
			totScans, totRows, totEmitted, e.stats.StreamScans, e.stats.StreamRows)
	}

	switch {
	case e.stats.PlanCacheHits > 0:
		sb.WriteString("plan cache: hit (compilation reused)\n")
	case e.stats.PlanCacheMiss > 0:
		sb.WriteString("plan cache: miss (compiled and stored)\n")
	default:
		sb.WriteString("plan cache: disabled\n")
	}
	return sb.String()
}

// explainVal renders a value source: the variable's source name or the
// constant (symbolic constants resolve through the engine's table).
func (e *Engine) explainVal(p *rulePlan, s valSrc) string {
	if !s.isConst {
		if int(s.v) < len(p.varNames) && p.varNames[s.v] != "" {
			return p.varNames[s.v]
		}
		return fmt.Sprintf("$%d", s.v)
	}
	if int(s.c) < len(e.syms.names) {
		return fmt.Sprintf("%q", e.syms.names[s.c])
	}
	return fmt.Sprintf("%d", s.c)
}

func (e *Engine) explainLit(p *rulePlan, l *litPlan) string {
	switch l.kind {
	case LitAtom:
		var sb strings.Builder
		version := "full"
		if l.useDelta {
			version = "delta"
		}
		fmt.Fprintf(&sb, "scan %s(%s) index[%s]", l.rel.name, version, l.rel.indexes[l.index].signature())
		if len(l.prefix) > 0 {
			parts := make([]string, len(l.prefix))
			for i, s := range l.prefix {
				parts[i] = e.explainVal(p, s)
			}
			fmt.Fprintf(&sb, " prefix=(%s)", strings.Join(parts, ","))
		}
		for _, pb := range l.push {
			fmt.Fprintf(&sb, " pushdown[col%d %s %s]", len(l.prefix), pb.op, e.explainVal(p, pb.val))
		}
		var residual []string
		perm := l.rel.indexes[l.index].Perm
		for i, a := range l.rest {
			col := perm[len(l.prefix)+i]
			switch a.kind {
			case actBind:
				residual = append(residual, fmt.Sprintf("bind col%d->%s", col, e.explainVal(p, valSrc{v: a.v})))
			case actCheck:
				residual = append(residual, fmt.Sprintf("check col%d==%s", col, e.explainVal(p, valSrc{v: a.v})))
			}
		}
		if len(residual) > 0 {
			fmt.Fprintf(&sb, " %s", strings.Join(residual, " "))
		}
		return sb.String()
	case LitNegAtom:
		parts := make([]string, len(l.ground))
		for i, s := range l.ground {
			parts[i] = e.explainVal(p, s)
		}
		return fmt.Sprintf("probe !%s(%s)", l.rel.name, strings.Join(parts, ","))
	case LitCmp:
		suffix := ""
		if l.pushed {
			suffix = "  [pushed into scan bounds]"
		}
		return fmt.Sprintf("filter %s %s %s%s", e.explainVal(p, l.l), l.op, e.explainVal(p, l.r), suffix)
	}
	return "?"
}
