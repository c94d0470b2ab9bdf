package core

import (
	"fmt"
	"math"

	"mpcdist/internal/cand"
	"mpcdist/internal/chain"
	"mpcdist/internal/editdist"
	"mpcdist/internal/mpc"
	"mpcdist/internal/trace"
)

// The large-distance regime (Section 5.2), for guesses n^delta > n^{1-x/5}.
// Four rounds, with the machine classes of Algorithms 5-7:
//
//	R1 "reps":      chunked representative × node grids compute exact
//	                distances (Algorithm 5). Block distances go to the
//	                per-group selector machines and to the block's sparse
//	                run machines; window distances go to the per-rep
//	                joiner machines.
//	R2 "join":      selectors pick each block's best representative and
//	                forward the choice to that representative's joiner
//	                (the N_tau(z) x N_2tau(z) join of Lemma 7); joiners
//	                pass their window-distance vectors through; sparse run
//	                machines (presampled with the common-seed coin of
//	                Algorithm 6 line 9, and uncovered at some tau) compute
//	                exact distances to their candidate windows, emit
//	                direct tuples, and request extensions (Fig. 7).
//	R3 "extend":    joiners emit the triangle-inequality tuples
//	                (d(z,v)+d(z,u) <= 3·tau); extension machines evaluate
//	                the shifted pairs exactly (Algorithm 7); a passthrough
//	                forwards the direct tuples.
//	R4 "chain":     the overlap-tolerant DP of Section 5.2.3.
//
// Simulator liberty (documented in DESIGN.md): string payloads for
// machines whose work assignment only becomes known mid-computation
// (extension and sparse-run machines) are injected by the driver at round
// boundaries, standing in for distributed-storage reads; they count toward
// the receiving machine's memory.

type largeBlock struct{ l, r int }

// distMsg is a representative-to-block distance.
type distMsg struct{ Z, V, D int32 }

// Words implements mpc.Payload.
func (distMsg) Words() int { return 3 }

// wdistMsg is a representative-to-window distance.
type wdistMsg struct{ Z, U, D int32 }

// Words implements mpc.Payload.
func (wdistMsg) Words() int { return 3 }

// selMsg tells a joiner that it hosts block V's best representative.
type selMsg struct{ V, Z, D int32 }

// Words implements mpc.Payload.
func (selMsg) Words() int { return 3 }

// repBatch is an R1 input: a chunk of representatives and a chunk of nodes
// with their string content.
type repBatch struct {
	RepIDs  []int32
	RepStr  [][]byte
	NodeIDs []int32
	NodeStr [][]byte
	// RunRouting lists, for each block id, the R2 run-machine ids that
	// need its representative distances.
	RunRouting map[int32][]int32
}

// Words implements mpc.Payload.
func (b *repBatch) Words() int {
	w := 4 + len(b.RepIDs) + len(b.NodeIDs)
	for _, s := range b.RepStr {
		w += (len(s)+7)/8 + 1
	}
	for _, s := range b.NodeStr {
		w += (len(s)+7)/8 + 1
	}
	for _, r := range b.RunRouting {
		w += 2 + len(r)
	}
	return w
}

// runJob is an R2 input for a presampled (possibly sparse) block: the block
// string, a run of its candidate windows, and the segment covering them.
type runJob struct {
	V      int32 // block id
	L, R   int
	Block  []byte
	SegOff int
	Seg    []byte
	Wins   [][2]int // absolute window intervals within the segment
	Group  int      // group index, for extensions
}

// Words implements mpc.Payload.
func (j *runJob) Words() int {
	return 8 + 2*len(j.Wins) + (len(j.Block)+7)/8 + (len(j.Seg)+7)/8
}

// extJob is an R3 input: one extension pair with injected string content.
type extJob struct {
	L, R, G, K int
	Block, Win []byte
}

// Words implements mpc.Payload.
func (j *extJob) Words() int {
	return 5 + (len(j.Block)+7)/8 + (len(j.Win)+7)/8
}

// joinState is a joiner's pass-through payload: its rep id and string plus
// nothing else (its distances arrive as wdistMsg).
type joinState struct {
	Z     int32
	Block bool // whether the rep is a block node
}

// Words implements mpc.Payload.
func (joinState) Words() int { return 2 }

// editLarge runs the four-round large-distance algorithm for guess g.
func editLarge(s, sbar []byte, g int, p Params) (int, mpc.Report, error) {
	n, m := len(s), len(sbar)
	N := maxInt(n, m)
	cl := p.cluster(N)
	epsP := p.Eps / 4
	fN := float64(N)

	y := 6 * p.X / 5
	yp := 4 * p.X / 5
	bsz := intPow(N, 1-y)
	var blocks []largeBlock
	for l := 0; l < n; l += bsz {
		blocks = append(blocks, largeBlock{l, minInt(l+bsz-1, n-1)})
	}
	nb := len(blocks)
	if nb == 0 || m == 0 {
		return n + m, cl.Report(), nil
	}
	groupBlocks := maxInt(1, intPow(N, y-yp))
	numGroups := (nb + groupBlocks - 1) / groupBlocks

	// Global candidate windows on the G' grid (Section 5.2.1). Driver-side
	// partition work (the block/window decomposition every round consumes),
	// labeled phase=partition for profiles.
	grid := maxInt(1, int(epsP*float64(g)/math.Pow(fN, y)))
	maxWin := int(float64(bsz)/epsP) + 1
	winIdx := make(map[[2]int]int32)
	var wins [][2]int
	trace.LabelPhase(p.Algo, trace.PhasePartition, "edit/large/partition", func() {
		for gamma := 0; gamma < m; gamma += grid {
			for _, kappa := range cand.Ends(gamma, minInt(bsz, n), m, epsP, maxWin, g) {
				key := [2]int{gamma, kappa}
				if _, ok := winIdx[key]; !ok {
					winIdx[key] = int32(len(wins))
					wins = append(wins, key)
				}
			}
		}
	})
	nw := len(wins)
	nT := nb + nw

	// wOfBlock: window ids usable by a block (starts within g+B of it).
	wOfBlock := make([][]int32, nb)
	trace.LabelPhase(p.Algo, trace.PhasePartition, "edit/large/partition", func() {
		for wi, w := range wins {
			for bi, bl := range blocks {
				if abs(w[0]-bl.l) <= g+bsz {
					wOfBlock[bi] = append(wOfBlock[bi], int32(wi))
				}
			}
		}
	})

	// Node helpers. Node ids: blocks are [0, nb), windows are [nb, nb+nw).
	nodeStr := func(id int32) []byte {
		if int(id) < nb {
			bl := blocks[id]
			return s[bl.l : bl.r+1]
		}
		w := wins[int(id)-nb]
		return sbar[w[0] : w[1]+1]
	}

	// Representative sampling: p1 = 2 ln(T) / h, h = N^{(3/5)x}
	// (Section 5.3), clamped for simulator scale.
	h := math.Pow(fN, 3*p.X/5)
	p1 := 2 * math.Log(float64(nT)+2) / h
	if p1 > 0.3 {
		p1 = 0.3
	}
	repRng := cl.SharedRand(0, "reps")
	var reps []int32
	for id := int32(0); id < int32(nT); id++ {
		if repRng.Float64() < p1 {
			reps = append(reps, id)
		}
	}
	nR := len(reps)

	// Low-degree presampling coins (Algorithm 6 line 9): one coin per
	// (block, tau); a block gets run machines iff any coin is true.
	tauMax := bsz + maxWin + 2
	taus := ladder(epsP, tauMax)
	oneMinusDelta := fN / float64(g)
	denom := math.Pow(fN, y-yp) / oneMinusDelta
	if denom < 1 {
		denom = 1
	}
	lnN := math.Log(fN + 2)
	p2 := 3 * lnN * lnN / (epsP * epsP) / denom
	if p2 > 1 {
		p2 = 1
	}
	coinRng := cl.SharedRand(0, "lowdeg")
	coins := make([][]bool, nb)
	presampled := make([]bool, nb)
	for bi := range coins {
		coins[bi] = make([]bool, len(taus))
		for ti := range taus {
			coins[bi][ti] = coinRng.Float64() < p2
			presampled[bi] = presampled[bi] || coins[bi][ti]
		}
	}

	budget := p.memoryBudget(N)

	// ---- Round 2/3 machine id namespaces ----
	// R2: joiners [0, nR), selectors [nR, nR+numGroups), runs [nR+numGroups, ...).
	// R3: joiners [0, nR), passthrough nR, extension machines [nR+1, ...).
	selBase := nR
	runBase := nR + numGroups
	passID := nR
	extBase := nR + 1
	collector := 0

	// Run-machine layout: for each presampled block, runs of its windows
	// sized to the memory budget.
	runIDs := make(map[int32][]int32)
	runInputs := make(map[int][]mpc.Payload)
	nextRun := int32(runBase)
	trace.LabelPhase(p.Algo, trace.PhasePartition, "edit/large/partition", func() {
		for bi, bl := range blocks {
			if !presampled[bi] {
				continue
			}
			ws := wOfBlock[bi]
			if len(ws) == 0 {
				continue
			}
			perRun := maxInt(1, (budget/2)/maxInt(1, (bsz+maxWin)/8+3))
			for lo := 0; lo < len(ws); lo += perRun {
				hi := minInt(lo+perRun, len(ws))
				segLo, segHi := m, 0
				var ivs [][2]int
				for _, wi := range ws[lo:hi] {
					w := wins[wi]
					ivs = append(ivs, w)
					segLo = minInt(segLo, w[0])
					segHi = maxInt(segHi, w[1])
				}
				job := &runJob{
					V: int32(bi), L: bl.l, R: bl.r,
					Block:  s[bl.l : bl.r+1],
					SegOff: segLo,
					Seg:    sbar[segLo : segHi+1],
					Wins:   ivs,
					Group:  bi / groupBlocks,
				}
				runInputs[int(nextRun)] = []mpc.Payload{job}
				runIDs[int32(bi)] = append(runIDs[int32(bi)], nextRun)
				nextRun++
			}
		}
	})

	// ---- Round 1: representative distances (Algorithm 5) ----
	// Chunk sizes bounded by both string residency (input side) and the
	// distance-message volume (output side, 3 words per pair).
	perChunk := maxInt(1, (budget/4)/maxInt(1, bsz/8+3))
	outChunk := maxInt(1, int(math.Sqrt(float64(budget)/8)))
	perChunk = minInt(perChunk, outChunk)
	r1Inputs := make(map[int][]mpc.Payload)
	id := 0
	trace.LabelPhase(p.Algo, trace.PhasePartition, "edit/large/partition", func() {
		for rlo := 0; rlo < nR; rlo += perChunk {
			rhi := minInt(rlo+perChunk, nR)
			for nlo := 0; nlo < nT; nlo += perChunk {
				nhi := minInt(nlo+perChunk, nT)
				batch := &repBatch{RunRouting: make(map[int32][]int32)}
				for _, z := range reps[rlo:rhi] {
					batch.RepIDs = append(batch.RepIDs, z)
					batch.RepStr = append(batch.RepStr, nodeStr(z))
				}
				for v := nlo; v < nhi; v++ {
					batch.NodeIDs = append(batch.NodeIDs, int32(v))
					batch.NodeStr = append(batch.NodeStr, nodeStr(int32(v)))
					if v < nb {
						batch.RunRouting[int32(v)] = runIDs[int32(v)]
					}
				}
				r1Inputs[id] = []mpc.Payload{batch}
				id++
			}
		}
	})

	repIndex := make(map[int32]int, nR)
	for i, z := range reps {
		repIndex[z] = i
	}

	r1Out, err := cl.Run("edit-large/reps", trace.PhaseGraph, r1Inputs, func(x *mpc.Ctx, in []mpc.Payload) {
		for _, pl := range in {
			b := pl.(*repBatch)
			ladders := windowLadders(b, nb, wins)
			ds := make([]int32, len(b.NodeIDs))
			sends := len(b.NodeIDs)
			for _, rids := range b.RunRouting {
				sends += len(rids)
			}
			x.Grow(len(b.RepIDs) * sends)
			for zi, z := range b.RepIDs {
				rep := b.RepStr[zi]
				for vi, v := range b.NodeIDs {
					if int(v) < nb {
						ds[vi] = int32(editdist.Myers(rep, b.NodeStr[vi], x.Counter()))
					}
				}
				for _, l := range ladders {
					for k, d := range editdist.MyersMulti(rep, b.NodeStr[l.text], l.ends, x.Counter()) {
						ds[l.nodes[k]] = int32(d)
					}
				}
				// Send in node order: the selector keeps the first minimum
				// it receives, so the order decides ties.
				ji := int32(repIndex[z])
				for vi, v := range b.NodeIDs {
					if int(v) < nb {
						var msg mpc.Payload = distMsg{Z: ji, V: v, D: ds[vi]}
						x.Send(selBase+int(v)/groupBlocks, msg)
						for _, rid := range b.RunRouting[v] {
							x.Send(int(rid), msg)
						}
					} else {
						x.Send(int(ji), wdistMsg{Z: ji, U: v - int32(nb), D: ds[vi]})
					}
				}
			}
		}
	})
	if err != nil {
		return 0, mpc.Report{}, err
	}

	// Assemble R2 inputs: joiner passthroughs, selector messages, run jobs.
	// Inter-round re-distribution is driver-side partition work, same as
	// the initial decomposition.
	r2Inputs := make(map[int][]mpc.Payload)
	trace.LabelPhase(p.Algo, trace.PhasePartition, "edit/large/partition", func() {
		for dst, msgs := range r1Out {
			r2Inputs[dst] = msgs
		}
		for i := 0; i < nR; i++ {
			r2Inputs[i] = append(r2Inputs[i], joinState{Z: int32(i), Block: int(reps[i]) < nb})
		}
		for dst, pls := range runInputs {
			r2Inputs[dst] = append(r2Inputs[dst], pls...)
		}
		for gi := 0; gi < numGroups; gi++ {
			if _, ok := r2Inputs[selBase+gi]; !ok {
				r2Inputs[selBase+gi] = []mpc.Payload{}
			}
		}
	})

	dFilterLen := func(winLen int) int { return bsz + winLen } // skip-dominance filter
	var extReqs [][4]int                                       // collected driver-side from R2 emissions
	r2Out, err := cl.Run("edit-large/join", trace.PhaseGraph, r2Inputs, func(x *mpc.Ctx, in []mpc.Payload) {
		switch {
		case x.Machine < nR:
			// Joiner: forward window-distance vectors to R3 self, as
			// received (no re-boxing).
			x.Grow(len(in))
			for _, pl := range in {
				switch pl.(type) {
				case wdistMsg, joinState:
					x.Send(x.Machine, pl)
				}
			}
		case x.Machine < runBase:
			// Selector: best representative per block of its group.
			best := make(map[int32]distMsg)
			for _, pl := range in {
				if msg, ok := pl.(distMsg); ok {
					cur, seen := best[msg.V]
					if !seen || msg.D < cur.D {
						best[msg.V] = msg
					}
					x.Ops(1)
				}
			}
			for _, msg := range best {
				x.Send(int(msg.Z), selMsg{V: msg.V, Z: msg.Z, D: msg.D})
			}
		default:
			// Sparse run machine (Algorithm 6, low-degree branch).
			var job *runJob
			cover := int32(1 << 30)
			for _, pl := range in {
				switch v := pl.(type) {
				case *runJob:
					job = v
				case distMsg:
					if v.D < cover {
						cover = v.D
					}
				}
			}
			if job == nil {
				return
			}
			// Re-derive the shared coins for this block.
			rng := x.SharedRand("lowdeg")
			myCoins := make([]bool, len(taus))
			for bi := 0; bi < nb; bi++ {
				for ti := range taus {
					c := rng.Float64() < p2
					if int32(bi) == job.V {
						myCoins[ti] = c
					}
				}
			}
			dmemo := make(map[[2]int]int, len(job.Wins))
			distTo := func(w [2]int) int {
				if d, ok := dmemo[w]; ok {
					return d
				}
				d := editdist.Myers(job.Block, job.Seg[w[0]-job.SegOff:w[1]-job.SegOff+1], x.Counter())
				dmemo[w] = d
				return d
			}
			g0 := job.Group * groupBlocks
			g1 := minInt(g0+groupBlocks, nb)
			sentExt := make(map[[4]int]bool)
			for ti, tau := range taus {
				if int(cover) <= tau || !myCoins[ti] {
					continue
				}
				for _, w := range job.Wins {
					d := distTo(w)
					if d > tau {
						continue
					}
					if d <= dFilterLen(w[1]-w[0]+1) {
						x.Send(passID, tupleMsg(chain.Tuple{L: job.L, R: job.R, G: w[0], K: w[1], D: d}))
					}
					for bj := g0; bj < g1; bj++ {
						if bj == int(job.V) {
							continue
						}
						blj := blocks[bj]
						gamma := w[0] + (blj.l - job.L)
						kappa := w[1] + (blj.r - job.R)
						gamma = maxInt(0, gamma)
						kappa = minInt(m-1, kappa)
						if gamma > kappa {
							continue
						}
						req := [4]int{blj.l, blj.r, gamma, kappa}
						if sentExt[req] {
							continue
						}
						sentExt[req] = true
						x.Send(extBase, mpc.Ints{req[0], req[1], req[2], req[3]})
					}
				}
			}
		}
	})
	if err != nil {
		return 0, mpc.Report{}, err
	}

	// Build R3 inputs. Extension requests (sent to the extBase sentinel)
	// are deduplicated and repacked across extension machines with their
	// string content injected (distributed-storage read).
	r3Inputs := make(map[int][]mpc.Payload)
	trace.LabelPhase(p.Algo, trace.PhasePartition, "edit/large/partition", func() {
		for dst, msgs := range r2Out {
			if dst == extBase {
				for _, pl := range msgs {
					r := pl.(mpc.Ints)
					extReqs = append(extReqs, [4]int{r[0], r[1], r[2], r[3]})
				}
				continue
			}
			r3Inputs[dst] = msgs
		}
		seenReq := make(map[[4]int]bool)
		perExt := maxInt(1, (budget/2)/maxInt(1, (bsz+maxWin)/8+8))
		extID := extBase
		cnt := 0
		for _, rq := range extReqs {
			if seenReq[rq] {
				continue
			}
			seenReq[rq] = true
			r3Inputs[extID] = append(r3Inputs[extID], &extJob{
				L: rq[0], R: rq[1], G: rq[2], K: rq[3],
				Block: s[rq[0] : rq[1]+1],
				Win:   sbar[rq[2] : rq[3]+1],
			})
			cnt++
			if cnt%perExt == 0 {
				extID++
			}
		}
		if _, ok := r3Inputs[passID]; !ok {
			r3Inputs[passID] = []mpc.Payload{}
		}
	})

	r3Out, err := cl.Run("edit-large/extend", trace.PhaseGraph, r3Inputs, func(x *mpc.Ctx, in []mpc.Payload) {
		if x.Machine < nR {
			// Joiner: emit triangle tuples for its selected blocks.
			var sels []selMsg
			wd := make(map[int32]int32, len(in))
			for _, pl := range in {
				switch msg := pl.(type) {
				case selMsg:
					sels = append(sels, msg)
				case wdistMsg:
					wd[msg.U] = msg.D
				}
			}
			for _, sel := range sels {
				bl := blocks[sel.V]
				dzv := int(sel.D)
				for _, wi := range wOfBlock[sel.V] {
					dzu, ok := wd[wi]
					if !ok {
						continue
					}
					// Lemma 7 ladder test: exists tau in the ladder with
					// d(z,v) <= tau and d(z,u) <= 2 tau.
					need := maxInt(dzv, int(dzu+1)/2)
					if need > tauMax {
						continue
					}
					w := wins[wi]
					d := dzv + int(dzu)
					if d > dFilterLen(w[1]-w[0]+1) {
						continue
					}
					x.Send(collector, tupleMsg(chain.Tuple{L: bl.l, R: bl.r, G: w[0], K: w[1], D: d}))
					x.Ops(1)
				}
			}
			return
		}
		if x.Machine == passID {
			for _, pl := range in {
				if t, ok := pl.(tupleMsg); ok {
					x.Send(collector, t)
				}
			}
			return
		}
		// Extension machine (Algorithm 7).
		for _, pl := range in {
			if job, ok := pl.(*extJob); ok {
				d := editdist.Myers(job.Block, job.Win, x.Counter())
				if d <= dFilterLen(job.K-job.G+1) {
					x.Send(collector, tupleMsg(chain.Tuple{L: job.L, R: job.R, G: job.G, K: job.K, D: d}))
				}
			}
		}
	})
	if err != nil {
		return 0, mpc.Report{}, err
	}
	if _, ok := r3Out[collector]; !ok {
		r3Out[collector] = []mpc.Payload{}
	}

	// Round 4: overlap-tolerant chain DP (Section 5.2.3).
	fin, err := cl.Run("edit-large/chain", trace.PhaseChain, r3Out, func(x *mpc.Ctx, in []mpc.Payload) {
		tuples := make([]chain.Tuple, 0, len(in))
		for _, pl := range in {
			if t, ok := pl.(tupleMsg); ok {
				tuples = append(tuples, chain.Tuple(t))
			}
		}
		v := chain.EditCost(tuples, n, m, true, x.Counter())
		x.Send(collector, valueMsg(v))
	})
	if err != nil {
		return 0, mpc.Report{}, err
	}
	vals := fin[collector]
	if len(vals) != 1 {
		return 0, mpc.Report{}, fmt.Errorf("core: edit-large chain produced %d values", len(vals))
	}
	return int(vals[0].(valueMsg)), cl.Report(), nil
}

// windowLadder is the set of an R1 batch's window nodes that share one
// start γ. cand.Ends makes every window from γ a prefix of the longest
// one, so a single MyersMulti pass over that longest window prices the
// whole ladder.
type windowLadder struct {
	text  int   // batch index of the longest window
	nodes []int // batch indices of the ladder's windows
	ends  []int // their lengths, aligned with nodes
}

// windowLadders groups batch b's window nodes by start, in order of first
// appearance. Node ids at or above nb are windows, wins[id-nb] = [γ, κ].
func windowLadders(b *repBatch, nb int, wins [][2]int) []windowLadder {
	var ls []windowLadder
	byStart := make(map[int]int)
	for vi, v := range b.NodeIDs {
		if int(v) < nb {
			continue
		}
		w := wins[int(v)-nb]
		li, ok := byStart[w[0]]
		if !ok {
			li = len(ls)
			byStart[w[0]] = li
			ls = append(ls, windowLadder{text: vi})
		}
		l := &ls[li]
		l.nodes = append(l.nodes, vi)
		l.ends = append(l.ends, w[1]-w[0]+1)
		if len(b.NodeStr[vi]) > len(b.NodeStr[l.text]) {
			l.text = vi
		}
	}
	return ls
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
