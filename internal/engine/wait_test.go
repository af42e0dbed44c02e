package engine

import (
	"fmt"
	"math/rand"
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
// are 265 bitmap words, five summary words), so the lower-router search
// crosses empty ones. parts is the number of parts the table used to be
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

// TestWaitTableAwakeWalkProperty drives the awake set through random
// sequences of everything that touches it — Enlist (wakes the router), Wake,
// WakeAll, Delist, and awake walks that delist some waiters and Keep others
// — against a plain map as the model: an awake walk must visit exactly the
// listed waiters at awake routers, in the full walk's order, and leave awake
// exactly the routers it was told to Keep. The larger meshes span several
// bitmap summary words; parts only seeds the operation sequence, as in
// TestWaitTableVisitOrderProperty.
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
			for step := 0; step < 3000; step++ {
				switch w := all[rng.Intn(len(all))]; {
				case !w.link.Listed():
					w.router, w.key = randomRouter(), int64(rng.Intn(4))
					table.Enlist(&w.link, w.router, w.key, w.id)
					awake[w.router] = true
				case rng.Intn(4) == 0:
					table.Delist(&w.link)
				case rng.Intn(4) == 0:
					// A release at some router: it wakes only if somebody
					// waits there (a router without waiters has nobody to
					// offer to, and Enlist wakes it anyway).
					r := randomRouter()
					table.Wake(r)
					if hasWaiters(r) {
						awake[r] = true
					}
				case rng.Intn(40) == 0:
					table.WakeAll()
					for _, x := range all {
						if x.link.Listed() {
							awake[x.router] = true
						}
					}
				default:
					var want []*waiter
					for _, x := range reference(all) {
						if awake[x.router] {
							want = append(want, x)
						}
					}
					kept := map[int32]bool{}
					var seen []*waiter
					for it := table.WalkAwake(); it.Next(); {
						x := it.Waiter()
						seen = append(seen, x)
						switch rng.Intn(5) {
						case 0:
							it.Delist()
						case 1:
							it.Keep()
							kept[x.router] = true
						}
					}
					sameOrder(t, step, seen, want)
					awake = kept
				}
				for _, x := range all {
					if x.link.Listed() && table.Awake(x.router) != awake[x.router] {
						t.Fatalf("step %d: router %d awake = %v, model says %v", step, x.router, table.Awake(x.router), awake[x.router])
					}
				}
				sameOrder(t, step, visit(table), reference(all))
			}
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
