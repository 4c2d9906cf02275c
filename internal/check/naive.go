package check

// The Datalog differential's reference: naive bottom-up evaluation of the
// parsed AST, sharing nothing with the engine below the parser and the
// stratifier, so a planner, index, pushdown or semi-naïve bug cannot hide
// on both sides. One goroutine; per stratum, every rule re-evaluated over
// the full relations until a round derives nothing new; positive atoms
// joined by left-to-right nested loops, then comparisons and negations
// checked; per round, a hash index on each atom's bound columns (plain
// nested loops take minutes on Security).

import (
	"encoding/binary"
	"fmt"
	"sort"

	"specbtree/internal/datalog"
	"specbtree/internal/tuple"
)

// naiveEval returns every declared relation of src over facts as a sorted
// dump (evalDiffArm's format). Symbol constants, whose ids only the
// engine's symbol table knows, are an error.
func naiveEval(src string, facts map[string][]tuple.Tuple) (map[string][]string, error) {
	prog, err := datalog.Parse(src)
	if err != nil {
		return nil, err
	}
	strata, err := datalog.Stratify(prog)
	if err != nil {
		return nil, err
	}
	const all = ^uint64(0)                   // rowKey mask of every column
	rels := map[string]map[string][]uint64{} // relation -> rowKey -> row
	for _, d := range prog.Decls {
		rels[d.Name] = map[string][]uint64{}
	}
	grew := false // whether this round derived a new tuple
	add := func(pred string, row []uint64) {
		if k := rowKey(row, all); rels[pred] == nil {
			err = fmt.Errorf("naive reference: facts for undeclared relation %q", pred)
		} else if rels[pred][k] == nil {
			rels[pred][k], grew = row, true
		}
	}
	for name, ts := range facts {
		for _, t := range ts {
			add(name, t)
		}
	}
	for _, r := range prog.Rules { // positive atoms first, in source order
		sort.SliceStable(r.Body, func(i, j int) bool {
			return r.Body[i].Kind == datalog.LitAtom && r.Body[j].Kind != datalog.LitAtom
		})
	}
	values := func(ts []datalog.Term, env map[string]uint64) []uint64 {
		out := make([]uint64, len(ts))
		for i, t := range ts {
			out[i] = t.Num // zero for a wildcard
			if t.Kind == datalog.TermVar {
				out[i] = env[t.Name] // zero while unbound
			} else if t.Kind == datalog.TermSym && err == nil {
				err = fmt.Errorf("naive reference: symbol constant %s", t)
			}
		}
		return out
	}
	// The round's index of each body atom (reached with the same columns bound every time).
	var idx map[*datalog.Literal]map[string][][]uint64
	var walk func(head datalog.Atom, body []datalog.Literal, env map[string]uint64)
	walk = func(head datalog.Atom, body []datalog.Literal, env map[string]uint64) {
		if len(body) == 0 {
			add(head.Pred, values(head.Terms, env))
			return
		}
		l := body[0]
		switch l.Kind {
		case datalog.LitCmp:
			if v := values([]datalog.Term{l.L, l.R}, env); l.Op.Eval(v[0], v[1]) {
				walk(head, body[1:], env)
			}
		case datalog.LitNegAtom:
			if rels[l.Atom.Pred][rowKey(values(l.Atom.Terms, env), all)] == nil {
				walk(head, body[1:], env)
			}
		case datalog.LitAtom:
			var cols uint64           // bound columns, as a rowKey mask
			fresh := map[string]int{} // unbound variable -> its first column
			for c, t := range l.Atom.Terms {
				if _, bound := env[t.Name]; t.Kind != datalog.TermVar || bound {
					if t.Kind != datalog.TermWildcard {
						cols |= 1 << c
					}
				} else if _, seen := fresh[t.Name]; !seen {
					fresh[t.Name] = c
				}
			}
			if idx[&body[0]] == nil {
				idx[&body[0]] = map[string][][]uint64{}
				for _, row := range rels[l.Atom.Pred] {
					k := rowKey(row, cols)
					idx[&body[0]][k] = append(idx[&body[0]][k], row)
				}
			}
		rows:
			for _, row := range idx[&body[0]][rowKey(values(l.Atom.Terms, env), cols)] {
				for c, t := range l.Atom.Terms { // a variable repeated within the atom
					if first, ok := fresh[t.Name]; ok && row[c] != row[first] {
						continue rows
					}
				}
				for name, c := range fresh {
					env[name] = row[c]
				}
				walk(head, body[1:], env)
			}
			for name := range fresh {
				delete(env, name)
			}
		}
	}
	for _, st := range strata {
		for grew = true; grew && err == nil; {
			grew, idx = false, map[*datalog.Literal]map[string][][]uint64{}
			for _, ri := range st.Rules {
				walk(prog.Rules[ri].Head, prog.Rules[ri].Body, map[string]uint64{})
			}
		}
	}
	dump := map[string][]string{}
	for _, d := range prog.Decls {
		for _, row := range rels[d.Name] {
			dump[d.Name] = append(dump[d.Name], fmt.Sprint(row))
		}
		sort.Strings(dump[d.Name])
	}
	return dump, err
}

// rowKey encodes the values in the columns of mask (a bit per column;
// arity <= 64): a row's identity in a relation, or its index bucket.
func rowKey(vals []uint64, mask uint64) string {
	b := make([]byte, 0, 8*len(vals))
	for c, v := range vals {
		if mask&(1<<c) != 0 {
			b = binary.BigEndian.AppendUint64(b, v)
		}
	}
	return string(b)
}
