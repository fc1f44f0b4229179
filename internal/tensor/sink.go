package tensor

// This file decouples gradient accumulation from parameters so forward and
// backward passes can run concurrently. A GradBuf collects one sample's
// parameter gradients away from Param.Grad; a GradSink owns one GradBuf per
// batch position and reduces them into Param.Grad in fixed slot order, which
// makes the summed gradient bit-identical for any number of workers (each
// slot holds exactly one sample's contribution, so the floating-point
// addition grouping never depends on how samples were scheduled).

// GradBuf accumulates parameter gradients outside Param.Grad. Buffers are
// allocated lazily per parameter and reused across accumulation cycles
// (Reset starts a new cycle; a buffer is zeroed on its first touch of each
// cycle, so untouched parameters cost nothing).
//
// A nil *GradBuf is valid: Grad falls back to Param.Grad directly, the
// pre-existing single-threaded convention.
type GradBuf struct {
	grads   map[*Param]*gradEntry
	touched []*Param
	cycle   int
}

type gradEntry struct {
	m     *Matrix
	cycle int
}

// NewGradBuf allocates an empty gradient buffer.
func NewGradBuf() *GradBuf {
	return &GradBuf{grads: make(map[*Param]*gradEntry), cycle: 1}
}

// Grad returns the accumulation matrix for p, zeroed on the first touch of
// the current cycle. On a nil receiver it returns p.Grad.
func (b *GradBuf) Grad(p *Param) *Matrix {
	if b == nil {
		return p.Grad
	}
	e := b.grads[p]
	if e == nil {
		e = &gradEntry{m: NewMatrix(p.Value.Rows, p.Value.Cols)}
		b.grads[p] = e
	}
	if e.cycle != b.cycle {
		e.m.Zero()
		e.cycle = b.cycle
		b.touched = append(b.touched, p)
	}
	return e.m
}

// Reset starts a new accumulation cycle: previously touched buffers become
// stale and will be zeroed on their next touch.
func (b *GradBuf) Reset() {
	if b == nil {
		return
	}
	b.cycle++
	b.touched = b.touched[:0]
}

// AddInto sums every touched buffer into its parameter's Grad.
func (b *GradBuf) AddInto() {
	if b == nil {
		return
	}
	for _, p := range b.touched {
		p.Grad.AddInPlace(b.grads[p].m)
	}
}

// GradSink is a set of GradBufs, one per batch position ("slot"). Workers
// write each sample's gradients into the slot of its batch position; Reduce
// then folds the slots into Param.Grad in ascending slot order. Because the
// slot→sample mapping is fixed by the (deterministically shuffled) batch and
// not by worker scheduling, the reduction is bit-identical for any worker
// count, including 1.
type GradSink struct {
	slots []*GradBuf
}

// NewGradSink allocates a sink with n slots.
func NewGradSink(n int) *GradSink {
	s := &GradSink{slots: make([]*GradBuf, n)}
	for i := range s.slots {
		s.slots[i] = NewGradBuf()
	}
	return s
}

// Slot returns slot i's buffer.
func (s *GradSink) Slot(i int) *GradBuf { return s.slots[i] }

// Reset starts a new accumulation cycle on every slot.
func (s *GradSink) Reset() {
	for _, b := range s.slots {
		b.Reset()
	}
}

// Reduce sums every slot's touched buffers into Param.Grad, slot 0 first.
// Callers zero the gradients of the parameters they are about to step before
// reducing (see Adam.StepSink).
func (s *GradSink) Reduce() {
	for _, b := range s.slots {
		b.AddInto()
	}
}

// Scratch is an arena of reusable matrices keyed by shape, used to eliminate
// per-sample allocations in forward/backward passes. Get hands out a zeroed
// matrix that stays owned by the caller until Reset, which returns every
// handed-out matrix to the pool at once (call it after the backward pass of
// a sample has fully consumed its caches). A Scratch is single-goroutine
// state: give each worker its own.
//
// A nil *Scratch is valid: Get allocates a fresh matrix and Reset is a
// no-op, so code paths that do not care about reuse can pass nil.
type Scratch struct {
	pools map[[2]int]*shapePool
	// caps pools matrices by column count only, reusing (and growing) the
	// backing array across varying row counts — see GetAtLeast.
	caps map[int]*shapePool
}

type shapePool struct {
	bufs []*Matrix
	next int
}

// NewScratch allocates an empty arena.
func NewScratch() *Scratch {
	return &Scratch{pools: make(map[[2]int]*shapePool), caps: make(map[int]*shapePool)}
}

// Get returns a zeroed rows×cols matrix owned by the caller until Reset.
func (s *Scratch) Get(rows, cols int) *Matrix {
	if s == nil {
		return NewMatrix(rows, cols)
	}
	key := [2]int{rows, cols}
	p := s.pools[key]
	if p == nil {
		p = &shapePool{}
		s.pools[key] = p
	}
	if p.next < len(p.bufs) {
		m := p.bufs[p.next]
		p.next++
		m.Zero()
		return m
	}
	m := NewMatrix(rows, cols)
	p.bufs = append(p.bufs, m)
	p.next++
	return m
}

// GetAtLeast returns a zeroed rows×cols matrix like Get, but pools by
// column count only: a buffer is reused for any row count it has capacity
// for, and grown in place when it does not. Batched inference packs a
// varying number of graphs into one (Σ nodes)×dims matrix per forward pass;
// exact-shape pooling would allocate a fresh buffer for every distinct batch
// composition, while capacity pooling is allocation-free once the arena has
// seen the largest batch.
func (s *Scratch) GetAtLeast(rows, cols int) *Matrix {
	if s == nil {
		return NewMatrix(rows, cols)
	}
	p := s.caps[cols]
	if p == nil {
		p = &shapePool{}
		s.caps[cols] = p
	}
	if p.next < len(p.bufs) {
		m := p.bufs[p.next]
		p.next++
		need := rows * cols
		if cap(m.Data) < need {
			m.Data = make([]float64, need)
		}
		m.Data = m.Data[:need]
		m.Rows, m.Cols = rows, cols
		m.Zero()
		return m
	}
	m := NewMatrix(rows, cols)
	p.bufs = append(p.bufs, m)
	p.next++
	return m
}

// GetAtLeastRaw is GetAtLeast without the zeroing pass: the returned
// matrix's contents are undefined. For buffers whose every element is about
// to be overwritten anyway (a concat fill, or a MatMulIntoPooled target that
// zeroes internally) the Zero in GetAtLeast is a second full pass over the
// data for nothing.
func (s *Scratch) GetAtLeastRaw(rows, cols int) *Matrix {
	if s == nil {
		return NewMatrix(rows, cols)
	}
	p := s.caps[cols]
	if p == nil {
		p = &shapePool{}
		s.caps[cols] = p
	}
	if p.next < len(p.bufs) {
		m := p.bufs[p.next]
		p.next++
		need := rows * cols
		if cap(m.Data) < need {
			m.Data = make([]float64, need)
		}
		m.Data = m.Data[:need]
		m.Rows, m.Cols = rows, cols
		return m
	}
	m := NewMatrix(rows, cols)
	p.bufs = append(p.bufs, m)
	p.next++
	return m
}

// Reset reclaims every matrix handed out since the previous Reset. Matrices
// obtained before Reset must not be used afterwards.
func (s *Scratch) Reset() {
	if s == nil {
		return
	}
	for _, p := range s.pools {
		p.next = 0
	}
	for _, p := range s.caps {
		p.next = 0
	}
}
