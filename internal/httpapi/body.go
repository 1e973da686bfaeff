package httpapi

import (
	"bytes"
	"errors"
	"io"
	"sync"
)

// ErrBodyTooLarge is ReadBody's refusal of a body over its limit.
var ErrBodyTooLarge = errors.New("body exceeds its size limit")

// maxPooledBody bounds both what a Body pre-allocates on a peer's word and
// what goes back to the pool: a rare multi-megabyte body grows as its bytes
// arrive and is dropped afterwards, so it pins nothing.
const maxPooledBody = 64 << 10

// Body is one fully read (or fully encoded) HTTP body in a recycled buffer.
// Its bytes are valid until Release; whatever outlives that must be a copy.
type Body struct {
	buf bytes.Buffer
	// lim is the limit+1 overrun probe and src the same reader boxed once,
	// so reading a body allocates neither.
	lim io.LimitedReader
	src io.Reader
}

var bodyPool = sync.Pool{New: func() any {
	b := new(Body)
	b.src = &b.lim
	return b
}}

func newBody() *Body {
	b := bodyPool.Get().(*Body)
	b.buf.Reset()
	return b
}

// Bytes returns the body. The slice aliases the recycled buffer.
func (b *Body) Bytes() []byte { return b.buf.Bytes() }

// Release recycles the buffer. Nothing may reference Bytes afterwards.
func (b *Body) Release() {
	b.lim.R = nil
	if b.buf.Cap() <= maxPooledBody {
		bodyPool.Put(b)
	}
}

// ReadBody reads a whole request or response body of at most limit bytes.
// declared is the peer's Content-Length, negative when it sent none
// (chunked). A declared length over the limit is refused with
// ErrBodyTooLarge before a byte is read, and sizes the buffer once
// otherwise; an undeclared body is read one byte past the limit to tell
// "exactly limit" from "over". A body that ends short of its declared
// length is io.ErrUnexpectedEOF, never a shorter body. The caller Releases
// the result.
//
//mpdp:hotpath
func ReadBody(r io.Reader, declared, limit int64) (*Body, error) {
	if declared > limit {
		return nil, ErrBodyTooLarge
	}
	b := newBody()
	if declared > 0 {
		b.buf.Grow(int(min(declared, maxPooledBody)) + bytes.MinRead)
	}
	b.lim.R, b.lim.N = r, limit+1
	n, err := b.buf.ReadFrom(b.src)
	switch {
	case err == nil && n > limit:
		err = ErrBodyTooLarge
	case err == nil && n < declared:
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}
