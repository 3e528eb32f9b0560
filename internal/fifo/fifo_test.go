package fifo

import "testing"

// drain pops every element and checks they come out as want, want+1, ...
func drain(t *testing.T, q *Queue[int], want int) int {
	t.Helper()
	for q.Len() > 0 {
		if f := *q.Front(); f != want {
			t.Fatalf("front %d, want %d", f, want)
		}
		if v := q.Pop(); v != want {
			t.Fatalf("popped %d, want %d", v, want)
		}
		want++
	}
	return want
}

// TestGrowBehindPoppedPrefixKeepsOrder fills a queue whose oldest elements
// have been popped (but not yet compacted away) until it doubles, and
// checks FIFO order across the growth.
func TestGrowBehindPoppedPrefixKeepsOrder(t *testing.T) {
	var q Queue[int]
	next := 0
	for ; next < 12; next++ {
		q.Push(next)
	}
	for i := 0; i < 4; i++ { // 4 popped, 8 live: no compaction yet
		q.Pop()
	}
	if q.head != 4 {
		t.Fatalf("head %d after 4 pops of 12, want 4", q.head)
	}
	for end := next + 12; next < end; next++ {
		q.Push(next)
	}
	if q.Cap() != 2*minCap || q.Len() != 20 || q.head != 0 {
		t.Fatalf("cap %d, len %d, head %d; want %d, 20, 0", q.Cap(), q.Len(), q.head, 2*minCap)
	}
	if got := drain(t, &q, 4); got != next {
		t.Fatalf("popped up to %d of %d", got, next)
	}
}

// TestCompactionKeepsOrder compacts a queue whose popped prefix outweighs
// its live elements, explicitly and by pushing into a full buffer, and
// checks that the live elements moved to the front in order and that the
// buffer did not grow.
func TestCompactionKeepsOrder(t *testing.T) {
	var q Queue[int]
	next := 0
	push := func(n int) {
		for end := next + n; next < end; next++ {
			q.Push(next)
		}
	}
	push(10)
	for i := 0; i < 5; i++ {
		q.Pop()
	}
	q.Compact()
	if q.head != 0 || q.Len() != 5 {
		t.Fatalf("after Compact: head %d, len %d; want 0, 5", q.head, q.Len())
	}
	push(minCap - 5) // fill the buffer
	for i := 0; i < 10; i++ {
		q.Pop()
	}
	push(1) // full, popped prefix 10 >= live 6: compacts instead of growing
	if q.Cap() != minCap || q.head != 0 || q.Len() != 7 {
		t.Fatalf("after pushing into a full buffer: cap %d, head %d, len %d; want %d, 0, 7", q.Cap(), q.head, q.Len(), minCap)
	}
	if got := drain(t, &q, 15); got != next {
		t.Fatalf("popped up to %d of %d", got, next)
	}
}

// TestPopAndResetReleasePointers checks that a popped slot and, after
// Reset, the whole buffer hold no pointers.
func TestPopAndResetReleasePointers(t *testing.T) {
	var q Queue[*int]
	vals := make([]int, 8)
	for i := range vals {
		q.Push(&vals[i])
	}
	for i := 0; i < 5; i++ {
		q.Pop()
		if q.buf[i] != nil {
			t.Fatalf("popped slot %d still holds its pointer", i)
		}
	}
	q.Compact() // leaves stale copies behind the 3 live elements
	q.Reset()
	if q.Len() != 0 || q.Cap() != minCap {
		t.Fatalf("after Reset: len %d, cap %d; want 0, %d", q.Len(), q.Cap(), minCap)
	}
	for i, p := range q.buf[:cap(q.buf)] {
		if p != nil {
			t.Fatalf("slot %d still holds a pointer after Reset", i)
		}
	}
}
