// Package profile implements loop-level data dependence profiling, the
// mechanism the paper uses to obtain its dependence graphs (§4.1,
// refs [38, 39]). A program is executed sequentially under the
// interpreter with byte-granular shadow memory; every load and store
// inside the target loop is compared against the last writer/reader of
// each byte to emit flow/anti/output dependence edges, classified as
// loop-independent or loop-carried, plus the upwards-exposed-load and
// downwards-exposed-store properties of Definitions 2 and 3.
//
// Like practical dependence profilers, the shadow memory keeps only the
// most recent reader of each byte, so when several reads of an address
// precede a write in one iteration, the anti edge is recorded from the
// latest read. This compression never loses flow edges (the writer
// side is exact) and cannot flip a class between private and shared,
// because the reads it merges are already related by loop-independent
// flow dependences on the same address.
package profile

import (
	"fmt"
	"slices"

	"gdsx/internal/ast"
	"gdsx/internal/ddg"
	"gdsx/internal/interp"
	"gdsx/internal/mem"
	"gdsx/internal/sema"
)

// Origin identifies the data structure an access touched: a heap
// allocation site, a named global, or a thread stack (locals).
type Origin struct {
	Kind OriginKind
	// Site is the allocation-site ID for heap origins.
	Site int
	// Name is the global's name for global origins.
	Name string
}

// OriginKind discriminates Origin.
type OriginKind int

// Origin kinds.
const (
	OriginHeap OriginKind = iota
	OriginGlobal
	OriginStack
	OriginOther
)

func (o Origin) String() string {
	switch o.Kind {
	case OriginHeap:
		return fmt.Sprintf("heap#%d", o.Site)
	case OriginGlobal:
		return "global " + o.Name
	case OriginStack:
		return "stack"
	}
	return "other"
}

// Result is the outcome of profiling one loop.
type Result struct {
	Graph *ddg.Graph
	// Touched maps each access site executed in the loop to the set of
	// data-structure origins it touched (the dynamic points-to used to
	// cross-check the static alias analysis).
	Touched map[int]map[Origin]bool
	// Iterations is the total number of target-loop iterations profiled.
	Iterations int64
	// Run is the program's execution result.
	Run interp.Result
}

// shadow cells track the last writer and reader of each byte.
type cell struct {
	wSite int32
	wInst int32
	wIter int32
	rSite int32
	rInst int32
	rIter int32
}

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// shadow is a flat page table over the simulated address space,
// indexed by addr>>pageShift. Pages are allocated on first touch; the
// last page used is cached, since most consecutive accesses land in
// the same page.
type shadow struct {
	pages   []*[pageSize]cell
	lastIdx int64
	last    *[pageSize]cell
}

// span returns the cells of the bytes from addr up to addr+size or
// the end of addr's page, whichever comes first; callers walk an
// access that crosses a page boundary span by span.
func (s *shadow) span(addr, size int64) []cell {
	if idx := addr >> pageShift; idx != s.lastIdx {
		if idx >= int64(len(s.pages)) {
			s.pages = append(s.pages, make([]*[pageSize]cell, idx+1-int64(len(s.pages)))...)
		}
		p := s.pages[idx]
		if p == nil {
			p = new([pageSize]cell)
			s.pages[idx] = p
		}
		s.lastIdx, s.last = idx, p
	}
	off := addr & pageMask
	return s.last[off:min(off+size, pageSize)]
}

// edgeKey packs a dependence edge into one word: source site in the
// high half, destination site (below 2^29) above the kind and carried
// bits.
func edgeKey(src, dst int32, kind ddg.DepKind, carried bool) uint64 {
	k := uint64(src)<<32 | uint64(dst)<<3 | uint64(kind)<<1
	if carried {
		k |= 1
	}
	return k
}

// edgeTable counts dynamic edge occurrences under packed keys in an
// open-addressed, linearly probed table (key 0 marks an empty slot;
// real keys have a nonzero source site).
type edgeTable struct {
	keys   []uint64
	counts []int64
	n      int
}

func (t *edgeTable) add(key uint64, n int64) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	for i := (key * 0x9E3779B97F4A7C15) >> 32 & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case key:
			t.counts[i] += n
			return
		case 0:
			t.keys[i], t.counts[i] = key, n
			t.n++
			return
		}
	}
}

func (t *edgeTable) grow() {
	keys, counts := t.keys, t.counts
	size := max(64, 2*len(keys))
	t.keys, t.counts, t.n = make([]uint64, size), make([]int64, size), 0
	for i, k := range keys {
		if k != 0 {
			t.add(k, counts[i])
		}
	}
}

// edgeRun batches a run of occurrences of one edge: the bytes of a
// multi-byte access almost always produce the same edge, and so do the
// repeated executions of one access, so the table sees each run once.
type edgeRun struct {
	key uint64
	n   int64
}

func (r *edgeRun) add(t *edgeTable, key uint64) {
	if key == r.key {
		r.n++
		return
	}
	r.restart(t, key)
}

// restart is add's slow path, kept out of line so that add inlines
// into the per-byte loops.
func (r *edgeRun) restart(t *edgeTable, key uint64) {
	r.flush(t)
	r.key, r.n = key, 1
}

func (r *edgeRun) flush(t *edgeTable) {
	if r.n > 0 {
		t.add(r.key, r.n)
		r.n = 0
	}
}

// originCache remembers a live block an access site's origin lookup
// hit. The entry answers any later access inside [base, end) for as
// long as the memory's free generation is gen: a block stays live
// until something frees it, and a live block never overlaps another,
// so until then every address in it has the same origin (already in
// the site's origin list).
type originCache struct {
	base, end int64
	gen       uint64
}

// siteState is the profile state of one access site during a run. It
// is copied into the graph's maps once the run ends.
type siteState struct {
	count, defs     int64
	up, down, isDef bool
	origin          [2]originCache // most recently hit first
	origins         []Origin       // distinct origins touched
	// Runs of the edges ending at this site, one per kind.
	flow, anti, out edgeRun
}

// profiler is the state of one Loop run; its methods are the
// interpreter hooks.
type profiler struct {
	loopID int
	sh     shadow
	sites  []siteState // indexed by access ID, 1..NumAccesses
	edges  edgeTable
	mem    *mem.Memory
	res    *Result

	inLoop   bool
	instance int32 // current loop instance, starting at 1
	iter     int32 // current 0-based iteration within the instance
}

func (p *profiler) loopEnter(id int) {
	if id == p.loopID {
		p.inLoop = true
		p.instance++
		p.iter = -1 // LoopIter fires before the first body execution
	}
}

func (p *profiler) loopIter(id int, it int64) {
	if id == p.loopID {
		p.iter = int32(it)
		p.res.Iterations++
	}
}

func (p *profiler) loopExit(id int) {
	if id == p.loopID {
		p.inLoop = false
	}
}

// touch records the origin of an in-loop access. Sites that alternate
// between two blocks (a helper called on two arrays) stay in the
// two-entry cache.
func (p *profiler) touch(st *siteState, addr int64) {
	gen := p.mem.FreeGen()
	if oc := &st.origin[0]; addr >= oc.base && addr < oc.end && oc.gen == gen {
		return
	}
	if oc := &st.origin[1]; addr >= oc.base && addr < oc.end && oc.gen == gen {
		st.origin[0], st.origin[1] = st.origin[1], st.origin[0]
		return
	}
	o := Origin{Kind: OriginOther}
	b, ok := p.mem.Block(addr)
	if ok {
		o = blockOrigin(b)
		st.origin[1] = st.origin[0]
		st.origin[0] = originCache{base: b.Base, end: b.End(), gen: gen}
	}
	if !slices.Contains(st.origins, o) {
		st.origins = append(st.origins, o)
	}
}

func blockOrigin(b mem.Block) Origin {
	switch {
	case b.Site > 0:
		return Origin{Kind: OriginHeap, Site: b.Site}
	case len(b.Label) > 7 && b.Label[:7] == "global ":
		return Origin{Kind: OriginGlobal, Name: b.Label[7:]}
	case b.Label == "stack":
		return Origin{Kind: OriginStack}
	}
	return Origin{Kind: OriginOther}
}

func (p *profiler) load(site int, addr, size int64) {
	if site == 0 {
		return
	}
	if !p.inLoop {
		// A read after the loop: any value last written inside some
		// instance makes that store downwards-exposed.
		for size > 0 {
			cs := p.sh.span(addr, size)
			for i := range cs {
				c := &cs[i]
				if c.wSite != 0 && c.wInst > 0 {
					p.sites[c.wSite].down = true
				}
				c.rSite = int32(site)
				c.rInst = 0
				c.rIter = 0
			}
			addr += int64(len(cs))
			size -= int64(len(cs))
		}
		return
	}
	st := &p.sites[site]
	st.count++
	p.touch(st, addr)
	dst, inst, iter := int32(site), p.instance, p.iter
	for size > 0 {
		cs := p.sh.span(addr, size)
		for i := range cs {
			c := &cs[i]
			switch {
			case c.wSite == 0 || c.wInst != inst:
				// Value comes from outside this loop instance.
				st.up = true
				if c.wSite != 0 && c.wInst > 0 {
					// ... and from a store of an earlier instance: that
					// store's value survived the loop exit.
					p.sites[c.wSite].down = true
				}
			default:
				st.flow.add(&p.edges, edgeKey(c.wSite, dst, ddg.Flow, c.wIter != iter))
			}
			c.rSite, c.rInst, c.rIter = dst, inst, iter
		}
		addr += int64(len(cs))
		size -= int64(len(cs))
	}
}

func (p *profiler) store(site int, addr, size int64) {
	if site == 0 {
		return
	}
	st := &p.sites[site]
	if st.isDef {
		wInst, wIter := int32(0), int32(0)
		if p.inLoop {
			wInst, wIter = p.instance, p.iter
			st.defs++
		}
		for size > 0 {
			cs := p.sh.span(addr, size)
			for i := range cs {
				cs[i] = cell{wSite: int32(site), wInst: wInst, wIter: wIter}
			}
			addr += int64(len(cs))
			size -= int64(len(cs))
		}
		return
	}
	if !p.inLoop {
		for size > 0 {
			cs := p.sh.span(addr, size)
			for i := range cs {
				c := &cs[i]
				c.wSite = int32(site)
				c.wInst = 0
				c.wIter = 0
			}
			addr += int64(len(cs))
			size -= int64(len(cs))
		}
		return
	}
	st.count++
	p.touch(st, addr)
	dst, inst, iter := int32(site), p.instance, p.iter
	for size > 0 {
		cs := p.sh.span(addr, size)
		for i := range cs {
			c := &cs[i]
			// Anti dependence from the last reader.
			if c.rSite != 0 && c.rInst == inst {
				st.anti.add(&p.edges, edgeKey(c.rSite, dst, ddg.Anti, c.rIter != iter))
			}
			// Output dependence from the last writer.
			if c.wSite != 0 && c.wInst == inst {
				st.out.add(&p.edges, edgeKey(c.wSite, dst, ddg.Output, c.wIter != iter))
			}
			c.wSite, c.wInst, c.wIter = dst, inst, iter
		}
		addr += int64(len(cs))
		size -= int64(len(cs))
	}
}

// finish moves the run's per-site state and edge counts into the graph.
func (p *profiler) finish() {
	g := p.res.Graph
	for site := range p.sites {
		st := &p.sites[site]
		st.flow.flush(&p.edges)
		st.anti.flush(&p.edges)
		st.out.flush(&p.edges)
		if st.count > 0 {
			g.Sites[site] = st.count
		}
		if st.defs > 0 {
			g.Defs[site] = st.defs
		}
		if st.up {
			g.UpwardExposed[site] = true
		}
		if st.down {
			g.DownwardExposed[site] = true
		}
		if len(st.origins) > 0 {
			set := make(map[Origin]bool, len(st.origins))
			for _, o := range st.origins {
				set[o] = true
			}
			p.res.Touched[site] = set
		}
	}
	for i, k := range p.edges.keys {
		if k != 0 {
			g.AddEdgeN(int(k>>32), int(uint32(k)>>3), ddg.DepKind(k>>1&3), k&1 != 0, p.edges.counts[i])
		}
	}
}

// Loop profiles the target loop of a checked program by running it
// sequentially. The returned graph contains every dependence observed
// on any dynamic instance of the loop.
func Loop(prog *ast.Program, info *sema.Info, loopID int, opts interp.Options) (*Result, error) {
	if _, ok := info.Loops[loopID]; !ok {
		return nil, fmt.Errorf("profile: no loop with ID %d", loopID)
	}
	p := &profiler{
		loopID: loopID,
		sh:     shadow{lastIdx: -1},
		sites:  make([]siteState, prog.NumAccesses+1),
		res: &Result{
			Graph:   ddg.NewGraph(loopID),
			Touched: map[int]map[Origin]bool{},
		},
	}
	// Definition sites (declarations and allocations) kill the shadow
	// history of their bytes: a recycled stack slot or heap address is
	// a fresh object, not a dependence on its previous tenant.
	for id, as := range info.Accesses {
		p.sites[id].isDef = as.IsDef
	}

	opts.NumThreads = 1
	opts.Hooks = &interp.Hooks{
		LoopEnter: p.loopEnter,
		LoopIter:  p.loopIter,
		LoopExit:  p.loopExit,
		Load:      p.load,
		Store:     p.store,
	}
	opts.ForceSequential = true
	m := interp.New(prog, info, opts)
	p.mem = m.Mem()
	r, err := m.Run()
	if err != nil {
		return nil, err
	}
	p.res.Run = r
	p.finish()
	return p.res, nil
}
