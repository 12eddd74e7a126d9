package sim

import "testing"

// TestTagTableMatchesMap drives a TagTable and a Go map with the same random
// inserts, overwrites and deletes — sequential tags like a block core's, and
// scattered ones that collide in the probe runs — and compares every lookup,
// the length and the full contents after each op. Each entry must also sit on
// its own probe path (no tombstone or broken run after a backward shift).
func TestTagTableMatchesMap(t *testing.T) {
	for _, name := range []string{"sequential", "scattered"} {
		t.Run(name, func(t *testing.T) {
			var tt TagTable[int]
			model := map[uint64]int{}
			rnd := NewRand(7)
			next := uint64(0)
			pick := func() uint64 {
				if name == "sequential" {
					return next - uint64(rnd.Intn(64)) - 1
				}
				return uint64(rnd.Intn(4096)) << 20
			}
			for op := 0; op < 30000; op++ {
				switch r := rnd.Intn(10); {
				case r < 5:
					tag := next
					if name == "scattered" {
						tag = pick()
					}
					next++
					tt.Put(tag, op)
					model[tag] = op
				case r < 9:
					tag := pick()
					v, ok := tt.Delete(tag)
					mv, mok := model[tag]
					if ok != mok || v != mv {
						t.Fatalf("op %d: Delete(%d) = %d,%v, want %d,%v", op, tag, v, ok, mv, mok)
					}
					delete(model, tag)
				default:
					tag := pick()
					p, ok := tt.Get(tag)
					mv, mok := model[tag]
					if ok != mok || (ok && *p != mv) {
						t.Fatalf("op %d: Get(%d) disagrees with the map", op, tag)
					}
				}
				if tt.Len() != len(model) {
					t.Fatalf("op %d: Len %d, want %d", op, tt.Len(), len(model))
				}
				if op%97 == 0 {
					checkTagTable(t, &tt, model)
				}
			}
			checkTagTable(t, &tt, model)
			tt.Clear()
			if tt.Len() != 0 {
				t.Fatal("Clear left tags behind")
			}
			tt.Range(func(uint64, *int) bool { t.Fatal("Range visited a cleared table"); return false })
		})
	}
}

func checkTagTable(t *testing.T, tt *TagTable[int], model map[uint64]int) {
	t.Helper()
	seen := map[uint64]int{}
	tt.Range(func(tag uint64, v *int) bool {
		seen[tag] = *v
		return true
	})
	if len(seen) != len(model) {
		t.Fatalf("Range saw %d tags, want %d", len(seen), len(model))
	}
	for tag, v := range model {
		if seen[tag] != v {
			t.Fatalf("Range value for %d = %d, want %d", tag, seen[tag], v)
		}
		if i := tt.find(tag); i < 0 {
			t.Fatalf("tag %d is off its probe path", tag)
		}
	}
}

// TestTagTableRangeOrderIsDeterministic: two tables fed the same ops iterate
// in the same order.
func TestTagTableRangeOrderIsDeterministic(t *testing.T) {
	order := func() []uint64 {
		var tt TagTable[struct{}]
		for tag := uint64(0); tag < 300; tag++ {
			tt.Put(tag*7919, struct{}{})
			if tag%3 == 0 {
				tt.Delete(tag * 7919 / 2)
			}
		}
		var out []uint64
		tt.Range(func(tag uint64, _ *struct{}) bool { out = append(out, tag); return true })
		return out
	}
	a, b := order(), order()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Range order differs between identical tables")
		}
	}
}

// TestTagTableSteadyStateDoesNotAllocate: a table cycling at a steady
// population (tags rising, the oldest completing) stops allocating once it
// has grown.
func TestTagTableSteadyStateDoesNotAllocate(t *testing.T) {
	var tt TagTable[[4]uint64]
	tag := uint64(0)
	for ; tag < 64; tag++ {
		tt.Put(tag, [4]uint64{tag})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tt.Put(tag, [4]uint64{tag})
		if _, ok := tt.Delete(tag - 64); !ok {
			t.Fatal("oldest tag missing")
		}
		tag++
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per steady-state cycle", allocs)
	}
}

// TestBufPoolClasses: Get returns the requested length with a class-sized
// capacity, Put recycles by class, foreign buffers are not pooled, and a
// get/put cycle allocates nothing once warm.
func TestBufPoolClasses(t *testing.T) {
	var p BufPool
	for _, tc := range []struct{ n, cap int }{{0, 64}, {1, 64}, {64, 64}, {65, 128}, {1514, 2048}, {4096, 4096}, {64 << 10, 64 << 10}} {
		b := p.Get(tc.n)
		if len(b) != tc.n || cap(b) != tc.cap {
			t.Fatalf("Get(%d): len %d cap %d, want cap %d", tc.n, len(b), cap(b), tc.cap)
		}
		p.Put(b)
		if again := p.Get(tc.n); &again[:1][0] != &b[:1][0] {
			t.Fatalf("Get(%d) after Put did not reuse the buffer", tc.n)
		}
	}
	if b := p.Get(64<<10 + 1); len(b) != 64<<10+1 {
		t.Fatal("oversized Get")
	}
	p.Put(make([]byte, 100)) // not a class size: dropped
	if b := p.Get(100); cap(b) != 128 {
		t.Fatalf("foreign buffer pooled: cap %d", cap(b))
	}
	b := p.Get(1514)
	p.Put(b)
	if allocs := testing.AllocsPerRun(100, func() { p.Put(p.Get(1514)) }); allocs != 0 {
		t.Fatalf("%v allocations per warm get/put", allocs)
	}
}
