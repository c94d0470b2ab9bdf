package editdist

import (
	"sync"

	"mpcdist/internal/stats"
)

const wordBits = 64

// myersPass is the working state of one bit-parallel pass: the pattern's
// match masks and the vertical delta vectors, plus MyersMulti's result
// index. Passes come from myersPool and go back with every peq entry they
// set cleared again, so a pass never allocates once the pool is warm and
// clearing costs O(|pattern|), not O(256·words).
type myersPass struct {
	// peq[blk][c] has bit i set iff pattern[blk*64+i] == c.
	peq      [][256]uint64
	pv, mv   []uint64
	scoreBit uint64 // the pattern's last row within the last block
	// want[j] lists MyersMulti's result slots for prefix length j.
	want [][]int32
}

var myersPool = sync.Pool{New: func() any { return new(myersPass) }}

// newPass takes a pass from the pool and loads pattern a (non-empty) into
// it, with the score column at D[·][0].
func newPass(a []byte) *myersPass {
	p := myersPool.Get().(*myersPass)
	m := len(a)
	w := (m + wordBits - 1) / wordBits
	if cap(p.peq) < w {
		p.peq = make([][256]uint64, w)
		p.pv = make([]uint64, w)
		p.mv = make([]uint64, w)
	}
	p.peq, p.pv, p.mv = p.peq[:w], p.pv[:w], p.mv[:w]
	for i, c := range a {
		p.peq[i/wordBits][c] |= 1 << (uint(i) % wordBits)
	}
	for i := range p.pv {
		p.pv[i], p.mv[i] = ^uint64(0), 0
	}
	p.scoreBit = uint64(1) << (uint(m-(w-1)*wordBits) - 1)
	return p
}

// release clears the peq entries pattern a set and returns p to the pool.
func (p *myersPass) release(a []byte) {
	for i, c := range a {
		p.peq[i/wordBits][c] = 0
	}
	myersPool.Put(p)
}

// scan advances the pass over text columns b and returns the updated
// score, ed(pattern, text so far) when score enters as the value at the
// text position where b begins. Scanning b[:i] and then b[i:] is the same
// as scanning b, which is how MyersMulti reads off its prefix lengths.
func (p *myersPass) scan(b []byte, score int) int {
	peq, pv, mv, scoreBit := p.peq, p.pv, p.mv, p.scoreBit
	w := len(peq)
	for _, c := range b {
		hin := 1 // D[0][j+1] - D[0][j] = +1
		for blk := 0; blk < w; blk++ {
			eq := peq[blk][c]
			pvb, mvb := pv[blk], mv[blk]
			xv := eq | mvb
			if hin < 0 {
				eq |= 1
			}
			xh := (((eq & pvb) + pvb) ^ pvb) | eq
			ph := mvb | ^(xh | pvb)
			mh := pvb & xh
			if blk == w-1 {
				if ph&scoreBit != 0 {
					score++
				} else if mh&scoreBit != 0 {
					score--
				}
			}
			hout := 0
			if ph&(1<<(wordBits-1)) != 0 {
				hout = 1
			} else if mh&(1<<(wordBits-1)) != 0 {
				hout = -1
			}
			ph <<= 1
			mh <<= 1
			if hin < 0 {
				mh |= 1
			} else if hin > 0 {
				ph |= 1
			}
			pv[blk] = mh | ^(xv | ph)
			mv[blk] = ph & xv
			hin = hout
		}
	}
	return score
}

// Myers computes the exact edit distance between byte strings using the
// Myers/Hyyrö bit-parallel dynamic program, O(ceil(|a|/64)·|b|) time. It is
// the fast exact kernel used for the many block-sized comparisons performed
// by simulated machines. ops is charged one unit per word-column step, so
// its counts are comparable to DP cells divided by the word size.
func Myers(a, b []byte, ops *stats.Ops) int {
	// Pattern is a (vertical), text is b (horizontal). Keep pattern shorter
	// to minimize the number of words.
	if len(a) > len(b) {
		a, b = b, a
	}
	m, n := len(a), len(b)
	if m == 0 {
		return n
	}
	p := newPass(a)
	w := len(p.peq)
	score := p.scan(b, m)
	p.release(a)
	ops.Add(int64(w) * int64(n))
	return score
}

// MyersMulti returns, for each requested prefix length e in ends,
// ed(a, b[:e]) — all from a single bit-parallel pass over b. The candidate
// construction of Figs. 4-5 evaluates one block against a ladder of
// windows sharing a starting point; those windows are prefixes of the
// longest one, so one pass prices the whole ladder.
//
// ends must be in [0, len(b)]; order is arbitrary and duplicates are fine.
func MyersMulti(a, b []byte, ends []int, ops *stats.Ops) []int {
	out := make([]int, len(ends))
	if len(ends) == 0 {
		return out
	}
	m := len(a)
	if m == 0 {
		for i, e := range ends {
			out[i] = e
		}
		return out
	}
	maxEnd := 0
	for _, e := range ends {
		if e < 0 || e > len(b) {
			panic("editdist: MyersMulti end out of range")
		}
		if e > maxEnd {
			maxEnd = e
		}
	}
	p := newPass(a)
	w := len(p.peq)
	if cap(p.want) <= maxEnd {
		p.want = append(p.want[:cap(p.want)], make([][]int32, maxEnd+1-cap(p.want))...)
	}
	want := p.want[:maxEnd+1]
	for i, e := range ends {
		want[e] = append(want[e], int32(i))
	}
	score, at := m, 0
	for j, slots := range want {
		if len(slots) == 0 {
			continue
		}
		score = p.scan(b[at:j], score)
		at = j
		for _, slot := range slots {
			out[slot] = score
		}
		want[j] = slots[:0]
	}
	p.release(a)
	ops.Add(int64(w) * int64(maxEnd))
	return out
}
