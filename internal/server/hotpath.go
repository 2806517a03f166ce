package server

import (
	"io"
	"strconv"
	"sync"
)

// This file is the POST /v1/jobs near-zero-alloc toolkit: pooled
// request/response buffers and slab-allocated job records. The buffer
// pool and the body reader are the coordinator's as well
// (internal/fleet), for a submission's body and a node's reply. A job's
// body is journal.AppendJob's encoding of its record.

// maxPooledBuf is the largest buffer PutBuffer keeps: a coordinator's
// fan-out reply can be megabytes, and the pool must not pin that.
const maxPooledBuf = 64 << 10

// Buffer is a pooled scratch byte slice, reused first for a request
// body and then for the response encoding (a decoded spec does not
// alias the body — the decoder copies string fields).
type Buffer struct{ B []byte }

var bufPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 2048)} }}

// GetBuffer takes an empty Buffer from the pool.
func GetBuffer() *Buffer { return bufPool.Get().(*Buffer) }

// PutBuffer returns buf to the pool, unless it is nil or has grown past
// maxPooledBuf.
func PutBuffer(buf *Buffer) {
	if buf != nil && cap(buf.B) <= maxPooledBuf {
		buf.B = buf.B[:0]
		bufPool.Put(buf)
	}
}

// ReadBody appends r to b until EOF or limit bytes, growing b only when
// a body outgrows what earlier ones already paid for. complete reports
// that EOF came within the limit; a longer body is cut at limit.
func ReadBody(r io.Reader, b []byte, limit int) ([]byte, bool, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		room := b[len(b):cap(b)]
		room = room[:min(len(room), limit+1-len(b))]
		n, err := r.Read(room)
		b = b[:len(b)+n]
		switch {
		case len(b) > limit:
			return b[:limit], false, nil
		case err == io.EOF:
			return b, true, nil
		case err != nil:
			return b, false, err
		}
	}
}

// arenaBlock is the slab size of the job arena: ~100 KiB of Job
// records claimed at once instead of one GC allocation per submit.
const arenaBlock = 256

// jobArena hands out preallocated Job records. Records are never
// freed individually; a slab is collected once every job in it has
// been superseded by a published transition snapshot (jobs all reach
// a terminal state, so slabs do not pin memory indefinitely).
type jobArena struct {
	mu    sync.Mutex
	block []Job
}

func (a *jobArena) get() *Job {
	a.mu.Lock()
	if len(a.block) == 0 {
		a.block = make([]Job, arenaBlock)
	}
	j := &a.block[0]
	a.block = a.block[1:]
	a.mu.Unlock()
	return j
}

// appendPaddedInt appends n zero-padded to at least width digits —
// fmt.Sprintf("%06d", n) without the format-string walk.
func appendPaddedInt(b []byte, n int64, width int) []byte {
	var tmp [20]byte
	s := strconv.AppendInt(tmp[:0], n, 10)
	for pad := width - len(s); pad > 0; pad-- {
		b = append(b, '0')
	}
	return append(b, s...)
}
