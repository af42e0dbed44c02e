package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// waiter is the property test's stand-in for a worm.
type waiter struct {
	link   WaitLink[*waiter]
	router int32
	key    int64
	id     int64
}

// visit walks the table and returns what it saw.
func visit(t *WaitTable[*waiter]) []*waiter {
	var out []*waiter
	for it := t.Walk(); it.Next(); {
		out = append(out, it.Waiter())
	}
	return out
}

// reference is the order the table must reproduce: the listed waiters
// sorted by (router, policy key, ID) — the global request sort.
func reference(all []*waiter) []*waiter {
	var out []*waiter
	for _, w := range all {
		if w.link.Listed() {
			out = append(out, w)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.router != b.router {
			return a.router < b.router
		}
		if a.key != b.key {
			return a.key < b.key
		}
		return a.id < b.id
	})
	return out
}

func sameOrder(t *testing.T, step int, got, want []*waiter) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: walk visits %d waiters, %d are listed", step, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: visit %d is (router %d, key %d, id %d), reference has (router %d, key %d, id %d)",
				step, i, got[i].router, got[i].key, got[i].id, want[i].router, want[i].key, want[i].id)
		}
	}
}

// TestWaitTableVisitOrderProperty drives random enlist / delist / re-enlist
// sequences — delists both from outside a walk (the abort path) and through
// a cursor in mid-walk (the grant path) — and checks after every operation
// that walking the table visits exactly the listed waiters in
// sort.SliceStable order over (router, policy key, ID). Keys collide on
// purpose (few distinct values) so the ID tie-break is exercised, routers
// are few enough that runs grow several waiters long, and the larger meshes
// span several bitmap summary words (more than 4096 routers; 130x130 nodes
// are 265 bitmap words, five summary words), so the walk crosses empty
// ones. parts is the number of parts the table used to be
// split into; it has one part now, and parts only seeds the operation
// sequence, which is why 6x5 runs twice.
func TestWaitTableVisitOrderProperty(t *testing.T) {
	for _, tc := range []struct {
		w, h, parts, waiters int
	}{
		{4, 4, 1, 40},
		{6, 5, 4, 80},
		{6, 5, 7, 80},
		{130, 130, 1, 300},
		{70, 70, 3, 300},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%dx%d/parts-%d", tc.w, tc.h, tc.parts), func(t *testing.T) {
			nodes := tc.w * tc.h
			table := NewWaitTable[*waiter](nodes)
			rng := rand.New(rand.NewSource(int64(nodes*31 + tc.parts)))
			all := make([]*waiter, tc.waiters)
			for i := range all {
				all[i] = &waiter{id: int64(i)}
				all[i].link.Owner = all[i]
			}
			// Waiters crowd onto a few hot routers plus a sparse rest.
			place := func(w *waiter) {
				if rng.Intn(3) == 0 {
					w.router = int32(rng.Intn(nodes))
				} else {
					w.router = int32(rng.Intn(6) * nodes / 6)
				}
				w.key = int64(rng.Intn(4))
				table.Enlist(&w.link, w.router, w.key, w.id)
			}
			for step := 0; step < 4000; step++ {
				w := all[rng.Intn(len(all))]
				switch {
				case !w.link.Listed():
					place(w) // first enlist, or re-enlist at a new router and key
				case rng.Intn(2) == 0:
					table.Delist(&w.link)
				default:
					// Delist through a cursor in mid-walk, as a grant does;
					// the walk must still visit every other waiter exactly
					// once, in order.
					want := reference(all)
					var seen []*waiter
					for it := table.Walk(); it.Next(); {
						seen = append(seen, it.Waiter())
						if it.Waiter() == w {
							it.Delist()
						}
					}
					sameOrder(t, step, seen, want)
					if w.link.Listed() {
						t.Fatalf("step %d: cursor Delist left the link listed", step)
					}
				}
				sameOrder(t, step, visit(table), reference(all))
			}
			// Drain: every router's mark must go with its last waiter, so an
			// empty table walks nothing and later enlists start clean.
			for _, w := range all {
				table.Delist(&w.link)
			}
			if got := visit(table); len(got) != 0 {
				t.Fatalf("drained table still visits %d waiters", len(got))
			}
			for i, word := range table.waiting.sum {
				if word != 0 {
					t.Fatalf("drained table: summary word %d = %#x", i, word)
				}
			}
			place(all[0])
			sameOrder(t, -1, visit(table), reference(all))
		})
	}
}

// TestWaitTableAwakeWalkProperty drives the awake set and the due waiters
// through random sequences of everything that touches them — Enlist (wakes
// the router, the newcomer is new there), Release of outputs (numbered past
// 64, so that outputs share bits), SetWants, WakeAll, Delist, and awake walks
// that delist some waiters and Keep others — against plain maps as the
// model: an awake walk must visit exactly the listed waiters at awake routers
// that are new there, want an output released there since the walk last
// reached the router, or have not been offered since the last WakeAll, in
// the full walk's order; it must leave awake exactly the routers it was told
// to Keep; and Due must agree with the model between operations. The larger
// meshes span several bitmap summary words; parts only seeds the operation
// sequence, as in TestWaitTableVisitOrderProperty.
func TestWaitTableAwakeWalkProperty(t *testing.T) {
	for _, tc := range []struct {
		w, h, parts, waiters int
	}{
		{4, 4, 1, 40},
		{6, 5, 7, 80},
		{130, 130, 1, 300},
		{70, 70, 3, 300},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%dx%d/parts-%d", tc.w, tc.h, tc.parts), func(t *testing.T) {
			nodes := tc.w * tc.h
			table := NewWaitTable[*waiter](nodes)
			rng := rand.New(rand.NewSource(int64(nodes*17 + tc.parts)))
			all := make([]*waiter, tc.waiters)
			for i := range all {
				all[i] = &waiter{id: int64(i)}
				all[i].link.Owner = all[i]
			}
			awake := map[int32]bool{}
			released := map[int32]uint64{}
			isNew := map[*waiter]bool{}
			wants := map[*waiter]uint64{}
			randomRouter := func() int32 {
				if rng.Intn(3) == 0 {
					return int32(rng.Intn(nodes))
				}
				return int32(rng.Intn(6) * nodes / 6)
			}
			hasWaiters := func(r int32) bool {
				for _, w := range all {
					if w.link.Listed() && w.router == r {
						return true
					}
				}
				return false
			}
			due := func(x *waiter) bool {
				return x.link.Listed() && awake[x.router] && (isNew[x] || wants[x]&released[x.router] != 0)
			}
			for step := 0; step < 3000; step++ {
				switch w := all[rng.Intn(len(all))]; {
				case !w.link.Listed():
					w.router, w.key = randomRouter(), int64(rng.Intn(4))
					table.Enlist(&w.link, w.router, w.key, w.id)
					awake[w.router], isNew[w], wants[w] = true, true, 0
				case rng.Intn(4) == 0:
					table.Delist(&w.link)
				case rng.Intn(3) == 0:
					// A release at some router: it is recorded only if
					// somebody waits there (a waiter enlisted later is new
					// anyway).
					r, out := randomRouter(), rng.Intn(80)
					table.Release(r, out)
					if hasWaiters(r) {
						awake[r] = true
						released[r] |= 1 << (out % 64)
					}
				case rng.Intn(40) == 0:
					table.WakeAll()
					for _, x := range all {
						if x.link.Listed() {
							awake[x.router], isNew[x] = true, true
						}
					}
				default:
					var want []*waiter
					for _, x := range reference(all) {
						if due(x) {
							want = append(want, x)
						}
					}
					kept := map[int32]bool{}
					var seen []*waiter
					for it := table.WalkAwake(); it.Next(); {
						x := it.Waiter()
						seen = append(seen, x)
						isNew[x] = false
						if rng.Intn(2) == 0 {
							// The engine computes the candidates.
							m := rng.Uint64() & rng.Uint64()
							x.link.SetWants(m)
							wants[x] = m
						}
						switch rng.Intn(5) {
						case 0:
							it.Delist()
						case 1:
							it.Keep()
							kept[x.router], isNew[x] = true, true
						}
					}
					sameOrder(t, step, seen, want)
					for r := range awake {
						delete(released, r)
					}
					awake = kept
				}
				for _, x := range all {
					if !x.link.Listed() {
						continue
					}
					if table.Awake(x.router) != awake[x.router] {
						t.Fatalf("step %d: router %d awake = %v, model says %v", step, x.router, table.Awake(x.router), awake[x.router])
					}
					if table.Due(&x.link) != due(x) {
						t.Fatalf("step %d: waiter %d at router %d due = %v, model says %v", step, x.id, x.router, table.Due(&x.link), due(x))
					}
				}
				sameOrder(t, step, visit(table), reference(all))
			}
		})
	}
}

// arbiter is a toy router model over the wait table, for
// TestWaitTableGrantsMatchRouterWideWakes: routers with numbered outputs,
// headers that want some of them, and first-free-candidate arbitration — the
// engines' default output policy. Its reference mode offers every waiter at
// every woken router, as the table did before a wake named the output it
// frees; the table's mode offers only the waiters the table has due.
type arbiter struct {
	table     *WaitTable[*toyHeader]
	reference bool
	headers   []*toyHeader
	awake     map[int32]bool // reference mode: the woken routers
	held      map[[2]int]int64
	broken    map[[2]int]bool
	offers    int
}

type toyHeader struct {
	link    WaitLink[*toyHeader]
	id      int64
	router  int32
	key     int64
	cands   []int
	valid   bool // cands' wants are known to the table
	readyAt int  // the step its routing decision completes
	listed  bool // reference mode's table
}

func newArbiter(routers, headers int, reference bool) *arbiter {
	a := &arbiter{
		table: NewWaitTable[*toyHeader](routers), reference: reference,
		awake: map[int32]bool{}, held: map[[2]int]int64{}, broken: map[[2]int]bool{},
	}
	for i := 0; i < headers; i++ {
		h := &toyHeader{id: int64(i)}
		h.link.Owner = h
		a.headers = append(a.headers, h)
	}
	return a
}

func (a *arbiter) listed(h *toyHeader) bool {
	if a.reference {
		return h.listed
	}
	return h.link.Listed()
}

func (a *arbiter) hasWaiters(r int32) bool {
	for _, h := range a.headers {
		if a.listed(h) && h.router == r {
			return true
		}
	}
	return false
}

func (a *arbiter) enlist(id int64, router int32, key int64, cands []int, readyAt int) {
	h := a.headers[id]
	h.router, h.key, h.cands, h.valid, h.readyAt = router, key, cands, false, readyAt
	if a.reference {
		h.listed = true
		a.awake[router] = true
		return
	}
	a.table.Enlist(&h.link, router, key, id)
}

func (a *arbiter) delist(id int64) {
	if a.reference {
		a.headers[id].listed = false
		return
	}
	a.table.Delist(&a.headers[id].link)
}

func (a *arbiter) release(router int32, out int) {
	delete(a.held, [2]int{int(router), out})
	if !a.reference {
		a.table.Release(router, out)
	} else if a.hasWaiters(router) {
		a.awake[router] = true
	}
}

// faultChange toggles an output's broken mark. A repair wakes everybody, as
// the engines' OnEpochChange does; with redecide, every waiter's candidates
// are replaced, as fault masking re-decides them.
func (a *arbiter) faultChange(ch [2]int, redecide [][]int) {
	a.broken[ch] = !a.broken[ch]
	for i, c := range redecide {
		a.headers[i].cands, a.headers[i].valid = c, false
	}
	if a.reference {
		for _, h := range a.headers {
			if h.listed {
				a.awake[h.router] = true
			}
		}
		return
	}
	a.table.WakeAll()
}

// offer is one header's turn: Keep while its routing decision is pending,
// otherwise the first free candidate, or a refusal. It reports the grant.
func (a *arbiter) offer(h *toyHeader, step int) (out int, granted, kept bool) {
	if step < h.readyAt {
		return 0, false, true
	}
	a.offers++
	if !h.valid {
		var wants uint64
		for _, o := range h.cands {
			wants |= OutputBit(o)
		}
		h.link.SetWants(wants)
		h.valid = true
	}
	for _, o := range h.cands {
		ch := [2]int{int(h.router), o}
		if _, busy := a.held[ch]; !busy && !a.broken[ch] {
			a.held[ch] = h.id
			return o, true, false
		}
	}
	return 0, false, false
}

// arbitrate is one phase 2; it returns the grants in order, "id@router:out".
func (a *arbiter) arbitrate(step int) []string {
	var grants []string
	if !a.reference {
		for it := a.table.WalkAwake(); it.Next(); {
			h := it.Waiter()
			out, granted, kept := a.offer(h, step)
			switch {
			case kept:
				it.Keep()
			case granted:
				it.Delist()
				grants = append(grants, fmt.Sprintf("%d@%d:%d", h.id, h.router, out))
			}
		}
		return grants
	}
	var order []*toyHeader
	for _, h := range a.headers {
		if h.listed && a.awake[h.router] {
			order = append(order, h)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		x, y := order[i], order[j]
		if x.router != y.router {
			return x.router < y.router
		}
		if x.key != y.key {
			return x.key < y.key
		}
		return x.id < y.id
	})
	a.awake = map[int32]bool{}
	for _, h := range order {
		out, granted, kept := a.offer(h, step)
		switch {
		case kept:
			a.awake[h.router] = true
		case granted:
			h.listed = false
			grants = append(grants, fmt.Sprintf("%d@%d:%d", h.id, h.router, out))
		}
	}
	return grants
}

// TestWaitTableGrantsMatchRouterWideWakes runs random arbitration histories —
// headers enlisted with random candidate outputs and routing delays, held
// outputs released, outputs broken and repaired (with and without every
// waiter re-deciding its candidates), headers aborted — through the table,
// which offers a waiter only when it is new, wants a released output or
// waits through a fault change, and through a reference that offers every
// waiter of every woken router, and demands identical grants, step by step.
// One case numbers outputs past 64, so that outputs share want bits; one
// spreads the routers over several bitmap summary words. The table must
// make fewer offers than the reference, or the case proves nothing.
func TestWaitTableGrantsMatchRouterWideWakes(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		routers, outputs, headers int
	}{
		{"8-routers-6-outputs", 8, 6, 40},
		{"8-routers-100-outputs", 8, 100, 40},
		{"5000-routers-9-outputs", 5000, 9, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.routers*7 + tc.outputs)))
			got := newArbiter(tc.routers, tc.headers, false)
			ref := newArbiter(tc.routers, tc.headers, true)
			randomRouter := func() int32 {
				if tc.routers > 64 && rng.Intn(3) == 0 {
					return int32(rng.Intn(tc.routers))
				}
				return int32(rng.Intn(8) * tc.routers / 8)
			}
			randomCands := func() []int {
				c := make([]int, rng.Intn(4))
				for i := range c {
					c[i] = rng.Intn(tc.outputs)
				}
				return c
			}
			grants := 0
			for step := 0; step < 6000; step++ {
				switch op := rng.Intn(10); {
				case op < 4:
					h := got.headers[rng.Intn(tc.headers)]
					if got.listed(h) {
						break
					}
					r, key, cands := randomRouter(), int64(rng.Intn(3)), randomCands()
					readyAt := step
					if rng.Intn(4) == 0 {
						readyAt += 1 + rng.Intn(3)
					}
					got.enlist(h.id, r, key, cands, readyAt)
					ref.enlist(h.id, r, key, cands, readyAt)
				case op < 6:
					// Release a held output, the lowest-keyed one of a random
					// router that holds any.
					r := int(randomRouter())
					for o := 0; o < tc.outputs; o++ {
						if _, busy := got.held[[2]int{r, o}]; busy {
							got.release(int32(r), o)
							ref.release(int32(r), o)
							break
						}
					}
				case op == 6 && rng.Intn(8) == 0:
					ch := [2]int{int(randomRouter()), rng.Intn(tc.outputs)}
					var redecide [][]int
					if rng.Intn(2) == 0 {
						for range got.headers {
							redecide = append(redecide, randomCands())
						}
					}
					got.faultChange(ch, redecide)
					ref.faultChange(ch, redecide)
				case op == 7:
					id := int64(rng.Intn(tc.headers))
					if got.listed(got.headers[id]) {
						got.delist(id)
						ref.delist(id)
					}
				default:
					g, w := got.arbitrate(step), ref.arbitrate(step)
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("step %d: the table grants %v, router-wide wakes grant %v", step, g, w)
					}
					grants += len(g)
				}
				if !reflect.DeepEqual(got.held, ref.held) {
					t.Fatalf("step %d: held outputs differ", step)
				}
			}
			if grants < 100 || got.offers >= ref.offers {
				t.Fatalf("vacuous: %d grants; the table made %d offers, the reference %d", grants, got.offers, ref.offers)
			}
			t.Logf("%d grants: %d offers through the table, %d with router-wide wakes", grants, got.offers, ref.offers)
		})
	}
}

// TestWaitTableDelistIdempotent pins the abort path's contract: delisting a
// link that is not listed (an already granted worm's) is a no-op, and a
// double Enlist is a programming error.
func TestWaitTableDelistIdempotent(t *testing.T) {
	table := NewWaitTable[*waiter](9)
	w := &waiter{}
	w.link.Owner = w
	table.Delist(&w.link)
	table.Enlist(&w.link, 4, 0, 0)
	table.Delist(&w.link)
	table.Delist(&w.link)
	if got := visit(table); len(got) != 0 {
		t.Fatalf("table visits %d waiters after delist", len(got))
	}
	table.Enlist(&w.link, 2, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("enlisting a listed link did not panic")
		}
	}()
	table.Enlist(&w.link, 2, 0, 0)
}

// TestWaitTableZeroAllocs holds the table itself at zero allocations per
// operation: links live in the caller's worms.
func TestWaitTableZeroAllocs(t *testing.T) {
	table := NewWaitTable[*waiter](64)
	ws := make([]*waiter, 32)
	for i := range ws {
		ws[i] = &waiter{id: int64(i)}
		ws[i].link.Owner = ws[i]
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i, w := range ws {
			table.Enlist(&w.link, int32(i*7%64), int64(i%3), w.id)
		}
		n := 0
		for it := table.WalkAwake(); it.Next(); n++ {
			if n%2 == 0 {
				it.Delist()
			} else if n%3 == 0 {
				it.Keep()
			}
		}
		table.WakeAll()
		for it := table.Walk(); it.Next(); n++ {
			if n%2 == 0 {
				it.Delist()
			}
		}
		for _, w := range ws {
			table.Delist(&w.link)
		}
	})
	if allocs != 0 {
		t.Errorf("wait table operations allocate %.1f allocs/op, want 0", allocs)
	}
}

// sortedModel is the wait table as the plainest data that can hold it: per
// router, a slice of its waiters kept sorted by (key, ID); the awake routers
// and each one's released outputs; and per waiter the epoch of its last
// offer, 0 for never — the table's own offer rule, restated.
type sortedModel struct {
	runs     map[int32][]*waiter
	awake    map[int32]bool
	released map[int32]uint64
	offered  map[*waiter]uint64
	wants    map[*waiter]uint64
	epoch    uint64
}

func (m *sortedModel) enlist(w *waiter) {
	run := m.runs[w.router]
	i := sort.Search(len(run), func(i int) bool {
		return run[i].key > w.key || run[i].key == w.key && run[i].id > w.id
	})
	m.runs[w.router] = append(run[:i:i], append([]*waiter{w}, run[i:]...)...)
	m.awake[w.router], m.offered[w], m.wants[w] = true, 0, 0
}

func (m *sortedModel) delist(w *waiter) {
	run := m.runs[w.router]
	for i, x := range run {
		if x == w {
			m.runs[w.router] = append(run[:i:i], run[i+1:]...)
			return
		}
	}
}

// order lists the routers with waiters ascending: the walk order of runs.
func (m *sortedModel) order() []int32 {
	var rs []int32
	for r, run := range m.runs {
		if len(run) > 0 {
			rs = append(rs, r)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	return rs
}

// all is every waiter in full-walk order.
func (m *sortedModel) all() []*waiter {
	var out []*waiter
	for _, r := range m.order() {
		out = append(out, m.runs[r]...)
	}
	return out
}

// due is what an awake walk must offer now, in order.
func (m *sortedModel) due() []*waiter {
	var out []*waiter
	for _, r := range m.order() {
		if !m.awake[r] {
			continue
		}
		for _, w := range m.runs[r] {
			if m.offered[w] != m.epoch || m.wants[w]&m.released[r] != 0 {
				out = append(out, w)
			}
		}
	}
	return out
}

// TestWaitTableMatchesSortedModel drives random Enlist, Delist, Release,
// WakeAll and walk sequences — awake walks that delist, Keep and set wants,
// full walks that delist — against sortedModel, on tables from one bitmap
// word to several summary words. After every operation each router's run,
// followed from head, is its model slice with consistent back links and a
// nil end; Walk visits the model's waiters in (router, key, ID) order; and
// every awake walk visits exactly the model's due waiters in that order.
func TestWaitTableMatchesSortedModel(t *testing.T) {
	for _, nodes := range []int{9, 64, 700, 4900, 9000} {
		t.Run(fmt.Sprintf("nodes-%d", nodes), func(t *testing.T) {
			table := NewWaitTable[*waiter](nodes)
			rng := rand.New(rand.NewSource(int64(nodes)))
			ws := make([]*waiter, 120)
			for i := range ws {
				ws[i] = &waiter{id: int64(rng.Intn(1000))<<8 | int64(i)}
				ws[i].link.Owner = ws[i]
			}
			m := &sortedModel{
				runs: map[int32][]*waiter{}, awake: map[int32]bool{}, released: map[int32]uint64{},
				offered: map[*waiter]uint64{}, wants: map[*waiter]uint64{}, epoch: 1,
			}
			// A few hot routers, sparse others, and the last router, so the
			// runs grow long and the walks cross empty bitmap words.
			router := func() int32 {
				switch rng.Intn(4) {
				case 0:
					return int32(rng.Intn(nodes))
				case 1:
					return int32(nodes - 1)
				}
				return int32(rng.Intn(3) * nodes / 3)
			}
			for step := 0; step < 2500; step++ {
				w := ws[rng.Intn(len(ws))]
				switch op := rng.Intn(10); {
				case !w.link.Listed():
					w.router, w.key = router(), int64(rng.Intn(3))
					table.Enlist(&w.link, w.router, w.key, w.id)
					m.enlist(w)
				case op < 2:
					table.Delist(&w.link)
					m.delist(w)
				case op < 4:
					r, out := router(), rng.Intn(70)
					table.Release(r, out)
					if len(m.runs[r]) > 0 {
						m.awake[r] = true
						m.released[r] |= OutputBit(out)
					}
				case op == 4 && rng.Intn(8) == 0:
					table.WakeAll()
					m.epoch++
					for r, run := range m.runs {
						if len(run) > 0 {
							m.awake[r] = true
						}
					}
				case op < 6:
					want := m.all()
					var seen []*waiter
					for it := table.Walk(); it.Next(); {
						x := it.Waiter()
						seen = append(seen, x)
						if rng.Intn(6) == 0 {
							it.Delist()
							m.delist(x)
						}
					}
					sameOrder(t, step, seen, want)
				default:
					want := m.due()
					kept := map[int32]bool{}
					var seen []*waiter
					for it := table.WalkAwake(); it.Next(); {
						x := it.Waiter()
						seen = append(seen, x)
						m.offered[x] = m.epoch
						if rng.Intn(2) == 0 {
							wants := rng.Uint64() & rng.Uint64()
							x.link.SetWants(wants)
							m.wants[x] = wants
						}
						switch rng.Intn(5) {
						case 0:
							it.Delist()
							m.delist(x)
						case 1:
							it.Keep()
							kept[x.router], m.offered[x] = true, 0
						}
					}
					sameOrder(t, step, seen, want)
					m.awake, m.released = kept, map[int32]uint64{}
				}
				checkRuns(t, step, table, m, nodes)
				sameOrder(t, step, visit(table), m.all())
			}
		})
	}
}

// checkRuns holds every router's run in the table to its model slice: the
// links from head in order, each one's prev its predecessor, the last one's
// next nil, the waiting bitmap set exactly where a run is non-empty, and
// the awake bitmap exactly where the model's router is awake.
func checkRuns(t *testing.T, step int, table *WaitTable[*waiter], m *sortedModel, nodes int) {
	t.Helper()
	for r := int32(0); int(r) < nodes; r++ {
		run := m.runs[r]
		var prev *WaitLink[*waiter]
		l := table.head[r]
		for i, w := range run {
			if l != &w.link || l.prev != prev || l.router != r {
				t.Fatalf("step %d: router %d's run differs from its sorted slice at position %d", step, r, i)
			}
			prev, l = l, l.next
		}
		if l != nil {
			t.Fatalf("step %d: router %d's run is longer than its %d waiters", step, r, len(run))
		}
		if table.waiting.has(uint(r)) != (len(run) > 0) {
			t.Fatalf("step %d: router %d in the waiting set = %v with %d waiters", step, r, table.waiting.has(uint(r)), len(run))
		}
		if table.Awake(r) != m.awake[r] {
			t.Fatalf("step %d: router %d awake = %v, the model says %v", step, r, table.Awake(r), m.awake[r])
		}
	}
}
