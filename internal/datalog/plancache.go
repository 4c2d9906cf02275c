package datalog

// The keyed plan cache. Compiling a program — safety check,
// stratification, signature collection, minimum-chain-cover index
// selection and per-version rule compilation — is pure in the program
// text: neither the provider nor the worker count changes its outcome. Engines that evaluate the same program
// repeatedly (the benchmark drivers, the relation server's per-request
// engines) therefore share compiled plans through a PlanCache keyed by
// the canonical program text. A cached entry holds only immutable
// compile-time artifacts — index layouts, plan skeletons, the symbol
// intern order — never relation instances; binding an entry into a new
// engine clones the mutable shells around the shared read-only slices.
// DESIGN.md §12 documents the key derivation and the invalidation rule.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"specbtree/internal/obs"
)

// planEntry is one cached compilation: everything New derives from the
// program text before relations are instantiated. All fields are
// treated as read-only once stored.
type planEntry struct {
	// syms is the symbol intern order of the compile, replayed into the
	// binding engine's fresh table so cached plans' interned constants
	// resolve to the same ids.
	syms []string
	// strata is the stratification result (read-only, shared).
	strata []Stratum
	// rels are relation skeletons: index layouts without instances.
	rels map[string]*engRel
	// plans are plan skeletons per stratum, referencing the skeleton rels.
	plans map[int][]*rulePlan
	// sigs records each relation's sorted index signatures at store
	// time; lookup revalidates the skeletons against it and drops the
	// entry on mismatch (an index-set change invalidates the plans).
	sigs map[string][]string
}

// PlanCacheStats is a snapshot of a cache's accounting.
type PlanCacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
}

// HitRate returns the fraction of lookups served from the cache.
func (s PlanCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PlanCache memoises program compilations, keyed by canonical program
// text. It is safe for concurrent use; entries are evicted in
// least-recently-used order beyond the capacity. The zero value is not
// usable — construct with NewPlanCache.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*planEntry
	order   []string // LRU order, least recent first
	stats   PlanCacheStats
}

// NewPlanCache creates a cache bounded to capacity entries (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{cap: capacity, entries: map[string]*planEntry{}}
}

// DefaultPlanCache is the process-wide cache engines use unless Options
// selects another (or opts out).
var DefaultPlanCache = NewPlanCache(256)

// Stats returns a snapshot of the cache accounting.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// Invalidate drops every cached entry (the accounting survives).
func (c *PlanCache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*planEntry{}
	c.order = c.order[:0]
}

// touch moves key to the most-recent end of the LRU order.
func (c *PlanCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), key)
			return
		}
	}
	c.order = append(c.order, key)
}

// lookup returns the entry for key, or nil on a miss. A present entry
// whose recorded index signatures no longer match its skeletons is
// dropped and counted as an invalidation (and the lookup as a miss):
// the plans were compiled against an index set that no longer holds.
func (c *PlanCache) lookup(key string) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok && !validEntry(e) {
		c.stats.Invalidations++
		obs.Inc(obs.EnginePlanCacheInvalidations)
		delete(c.entries, key)
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		e, ok = nil, false
	}
	if !ok {
		c.stats.Misses++
		obs.Inc(obs.EnginePlanCacheMisses)
		return nil
	}
	c.stats.Hits++
	obs.Inc(obs.EnginePlanCacheHits)
	c.touch(key)
	return e
}

// store inserts an entry, evicting the least recently used beyond the
// capacity.
func (c *PlanCache) store(key string, e *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok && len(c.entries) >= c.cap {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, victim)
	}
	c.entries[key] = e
	c.touch(key)
}

// validEntry checks an entry's skeletons against its recorded index
// signatures.
func validEntry(e *planEntry) bool {
	if len(e.sigs) != len(e.rels) {
		return false
	}
	for name, want := range e.sigs {
		r, ok := e.rels[name]
		if !ok {
			return false
		}
		got := indexSignatures(r)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
	}
	return true
}

// indexSignatures returns the sorted signature strings of a relation's
// index set.
func indexSignatures(r *engRel) []string {
	out := make([]string, len(r.indexes))
	for i, d := range r.indexes {
		out[i] = d.signature()
	}
	sort.Strings(out)
	return out
}

// programKey derives the cache key: the canonical program text.
// Declarations and rules fully determine the compilation; inputs and
// outputs are included for conservatism (they are cheap and make keys
// readable in debugger dumps).
func programKey(p *Program) string {
	var sb strings.Builder
	for _, d := range p.Decls {
		fmt.Fprintf(&sb, ".decl %s/%d\n", d.Name, d.Arity)
	}
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, ".in %s\n.out %s\n", strings.Join(p.Inputs, ","), strings.Join(p.Outputs, ","))
	return sb.String()
}

// cloneCompiled deep-copies the mutable shells of a compiled program —
// the engRel structs and rulePlan structs — while sharing the read-only
// interior (index definitions, prefix/action/push slices, strata). Used
// in both directions: snapshotting a fresh compile into the cache and
// binding a cached entry into a new engine. Relation instances
// (full/delta/nw) and profiling accumulators are never carried across.
func cloneCompiled(rels map[string]*engRel, plans map[int][]*rulePlan) (map[string]*engRel, map[int][]*rulePlan) {
	relMap := make(map[*engRel]*engRel, len(rels))
	newRels := make(map[string]*engRel, len(rels))
	for name, r := range rels {
		nr := &engRel{
			name:     r.name,
			arity:    r.arity,
			indexes:  r.indexes,
			sig:      r.sig,
			sigIndex: r.sigIndex,
		}
		relMap[r] = nr
		newRels[name] = nr
	}
	newPlans := make(map[int][]*rulePlan, len(plans))
	for si, ps := range plans {
		nps := make([]*rulePlan, len(ps))
		for i, p := range ps {
			np := *p
			np.evalTime, np.evalCount = 0, 0
			np.head = relMap[p.head]
			np.body = make([]litPlan, len(p.body))
			for j, l := range p.body {
				if l.rel != nil {
					l.rel = relMap[l.rel]
				}
				l.actScans, l.actRows, l.actEmitted = 0, 0, 0
				np.body[j] = l
			}
			nps[i] = &np
		}
		newPlans[si] = nps
	}
	return newRels, newPlans
}

// snapshotEntry captures a freshly compiled engine's plans into a cache
// entry. Must be called after compilation and before fact loading, so
// the symbol replay list covers exactly the constants the plans intern.
func snapshotEntry(e *Engine) *planEntry {
	rels, plans := cloneCompiled(e.rels, e.plans)
	sigs := make(map[string][]string, len(rels))
	for name, r := range rels {
		sigs[name] = indexSignatures(r)
	}
	return &planEntry{
		syms:   append([]string(nil), e.syms.names...),
		strata: e.strata,
		rels:   rels,
		plans:  plans,
		sigs:   sigs,
	}
}

// bindEntry installs a cached compilation into a fresh engine: replay
// the symbol interning, clone the skeletons, and share the strata.
func (e *Engine) bindEntry(entry *planEntry) {
	for _, s := range entry.syms {
		e.syms.Intern(s)
	}
	e.strata = entry.strata
	e.rels, e.plans = cloneCompiled(entry.rels, entry.plans)
}
