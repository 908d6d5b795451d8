package netsim

// chunkLen is the number of entries in one fifo chunk.
const chunkLen = 16

// chunk is one fixed block of a fifo, linked to the next younger block.
type chunk[T any] struct {
	items [chunkLen]T
	next  *chunk[T]
}

// fifo is a queue of T kept in fixed-size chunks linked oldest to youngest.
// Growing links one more chunk and never copies an entry, and a chunk the
// head leaves goes on the fifo's own spare list, so a queue cycling at any
// depth it has reached before allocates nothing. The zero value is empty.
type fifo[T any] struct {
	head, tail *chunk[T]
	spare      *chunk[T] // emptied chunks, linked through next
	hi, ti     int32     // next entry to pop in head, next free entry in tail
	n          int32
}

func (q *fifo[T]) len() int { return int(q.n) }

// push appends v at the tail.
func (q *fifo[T]) push(v T) {
	if q.tail == nil || q.ti == chunkLen {
		c := q.spare
		if c != nil {
			q.spare, c.next = c.next, nil
		} else {
			c = new(chunk[T])
		}
		if q.tail == nil {
			q.head = c
		} else {
			q.tail.next = c
		}
		q.tail, q.ti = c, 0
	}
	q.tail.items[q.ti] = v
	q.ti++
	q.n++
}

// pop removes and returns the oldest entry. The fifo must not be empty.
func (q *fifo[T]) pop() T {
	c := q.head
	v := c.items[q.hi]
	var zero T
	c.items[q.hi] = zero // the chunk must not keep the entry's frame alive
	q.hi++
	q.n--
	switch {
	case q.n == 0:
		// The head is the tail: refill it from the start.
		q.hi, q.ti = 0, 0
	case q.hi == chunkLen:
		q.head, c.next, q.spare = c.next, q.spare, c
		q.hi = 0
	}
	return v
}
