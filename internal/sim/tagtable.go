package sim

import "math/bits"

// TagTable maps request tags to values held in place. It is an
// open-addressed table: linear probing from a multiplicative hash of the
// tag, backward-shift deletion (no tombstones), and doubling whenever it
// would pass half full, so a table cycling at a steady population allocates
// nothing. The zero value is an empty table.
//
// Iteration (Range) walks slots in index order, which depends only on the
// tags present and the order they arrived in — never on a random seed.
type TagTable[V any] struct {
	slots []tagSlot[V] // len is zero or a power of two
	shift uint         // 64 - log2(len(slots))
	n     int
}

type tagSlot[V any] struct {
	tag  uint64
	v    V
	used bool
}

// Len returns the number of tags in the table.
func (t *TagTable[V]) Len() int { return t.n }

func (t *TagTable[V]) home(tag uint64) int {
	return int(tag * 0x9E3779B97F4A7C15 >> t.shift)
}

func (t *TagTable[V]) find(tag uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(tag); t.slots[i].used; i = (i + 1) & mask {
		if t.slots[i].tag == tag {
			return i
		}
	}
	return -1
}

// Get returns a pointer to tag's value, valid until the next Put or Delete.
func (t *TagTable[V]) Get(tag uint64) (*V, bool) {
	i := t.find(tag)
	if i < 0 {
		return nil, false
	}
	return &t.slots[i].v, true
}

// Put sets tag's value, inserting the tag if it is not present.
func (t *TagTable[V]) Put(tag uint64, v V) {
	if i := t.find(tag); i >= 0 {
		t.slots[i].v = v
		return
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.insert(tag, v)
	t.n++
}

func (t *TagTable[V]) insert(tag uint64, v V) {
	mask := len(t.slots) - 1
	i := t.home(tag)
	for t.slots[i].used {
		i = (i + 1) & mask
	}
	t.slots[i] = tagSlot[V]{tag: tag, v: v, used: true}
}

func (t *TagTable[V]) grow() {
	old := t.slots
	size := max(16, 2*len(old))
	t.slots = make([]tagSlot[V], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.used {
			t.insert(s.tag, s.v)
		}
	}
}

// Delete removes tag and returns its value. Each later entry of the probe
// run moves into the freed slot when that slot lies on its own probe path,
// so lookups never need tombstones.
func (t *TagTable[V]) Delete(tag uint64) (V, bool) {
	var zero V
	i := t.find(tag)
	if i < 0 {
		return zero, false
	}
	v := t.slots[i].v
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].tag))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tagSlot[V]{}
	t.n--
	return v, true
}

// Range calls f for every tag in slot order until f returns false. f must
// not add or remove tags.
func (t *TagTable[V]) Range(f func(tag uint64, v *V) bool) {
	for i := range t.slots {
		if s := &t.slots[i]; s.used && !f(s.tag, &s.v) {
			return
		}
	}
}

// Clear removes every tag, keeping the table's slots.
func (t *TagTable[V]) Clear() {
	clear(t.slots)
	t.n = 0
}
